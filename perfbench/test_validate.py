"""Tests of the benchmark's validators, input generators and tracer.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def hermite_exact(n, lam):
    """Generating-normalization coefficients, exact three-term recursion."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    for k in range(1, n):
        a = [Fraction(0)] + [2 * (1 - k * lam) * c for c in polys[k]]
        for i, c in enumerate(polys[k - 1]):
            a[i] -= k * (2 - (k - 1) * lam) * c
        polys.append(a)
    return polys[n]


def poly(coeffs):
    return SimpleNamespace(coeffs=tuple(coeffs))


def csv(header, rows):
    lines = [",".join(header)] + [",".join(map(str, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode()


# -- exact routes -------------------------------------------------------------


@pytest.mark.parametrize("lam", [Fraction(3, 10), Fraction(-2, 7)])
@pytest.mark.parametrize("n", [0, 1, 6, 13])
def test_hermite_poly_accepts_the_family(n, lam):
    assert validate.hermite_poly(poly(hermite_exact(n, lam)), n, lam) is None
    scaled = [Fraction(-5, 3) * c for c in hermite_exact(n, lam)]
    assert validate.hermite_poly(poly(scaled), n, lam) is None


def test_hermite_poly_rejects_defects():
    lam = Fraction(1, 9)
    good = hermite_exact(6, lam)
    bad = list(good)
    bad[2] += Fraction(1, 10**9)
    assert "equation" in validate.hermite_poly(poly(bad), 6, lam)
    assert "equation" in validate.hermite_poly(poly(good[:-1]), 6, lam)
    assert "degree" in validate.hermite_poly(poly(good + [1]), 5, lam)
    assert "degree" in validate.hermite_poly(poly([]), 6, lam)
    wrong_parity = list(good)
    wrong_parity[1] = Fraction(1)
    assert "parity" in validate.hermite_poly(poly(wrong_parity), 6, lam)
    # right polynomial, wrong deformation
    assert validate.hermite_poly(poly(good), 6, Fraction(1, 4)) is not None


def test_hermite_poly_degree_drop_past_the_bound_range():
    # at lam = 1/5 the factor (1 - 5 lam) kills the top of h_6: degree 4
    lam = Fraction(1, 5)
    h6 = hermite_exact(6, lam)
    assert h6[6] == 0 and h6[5] == 0 and h6[4] != 0
    assert validate.hermite_poly(poly(h6), 6, lam) is None
    assert validate.hermite_poly(poly(h6), 4, lam) is None
    assert validate.hermite_poly(poly(h6), 6, Fraction(1, 6)) is not None


def test_hermite_poly_generic_mode():
    from lambda_osc import generating_coeffs

    gen = generating_coeffs(9)
    for n in range(10):
        assert validate.hermite_poly(gen[n], n, None) is None
    cs = list(gen[6].coeffs)
    cs[4] = SimpleNamespace(coeffs=cs[4].coeffs[:-1])  # drop a lambda power
    assert validate.hermite_poly(poly(cs), 6, None) is not None


def test_proportional():
    lam = Fraction(1, 7)
    pb = poly(hermite_exact(5, lam))
    pa = poly([Fraction(3, 2) * c for c in pb.coeffs])
    assert validate.proportional(pa, pb, Fraction(3, 2)) is None
    assert validate.proportional(pa, pb, Fraction(2, 3)) is not None
    assert validate.proportional(pa, pb, None) is not None
    assert validate.proportional(pa, pb, Fraction(0)) is not None
    # a ratio of polynomials in lambda: pa = (3/2 + 0 lam) / 1 * pb
    ratio = SimpleNamespace(num=SimpleNamespace(coeffs=(Fraction(3),)),
                            den=SimpleNamespace(coeffs=(Fraction(2),)))
    assert validate.proportional(pa, pb, ratio) is None


def test_ladder_energies():
    lam = Fraction(-3, 10)
    es = [validate.energy(lam, k) - Fraction(1, 2) for k in range(21)]
    assert validate.ladder_energies(es, 20, lam) is None
    es[7] += Fraction(1, 1000)
    assert validate.ladder_energies(es, 20, lam) is not None
    assert validate.ladder_energies(es[:-1], 20, lam) is not None


# -- numeric oracles ----------------------------------------------------------


def test_gram():
    eye = [[float(i == j) for j in range(4)] for i in range(4)]
    assert validate.gram(eye, 4) is None
    assert validate.gram(eye, 5) is not None
    eye[1][2] = 2e-8
    assert validate.gram(eye, 4) is not None


def test_levels_nodes_period():
    lam = 0.2
    vals = [validate.energy(lam, m) for m in range(5)]
    assert validate.levels(vals, lam, 5) is None
    vals[3] += 2e-6
    assert validate.levels(vals, lam, 5) is not None
    assert validate.nodes([-1.5, 0.0, 1.5], 3, -0.3) is None
    assert validate.nodes([-1.5, 0.0, 1.4], 3, -0.3) is not None
    assert validate.nodes([-1.5, 1.5], 3, -0.3) is not None
    assert validate.nodes([-2.0, 2.0], 2, -0.3) is not None  # walls at 1.826
    law = 2 * math.pi * math.sqrt(1 + lam * 0.25)
    ok = SimpleNamespace(period=law * (1 + 5e-5), max_rel_energy_drift=5e-7)
    assert validate.period(ok, lam, 0.5) is None
    late = SimpleNamespace(period=law * (1 + 2e-4), max_rel_energy_drift=0.0)
    assert validate.period(late, lam, 0.5) is not None
    drifting = SimpleNamespace(period=law, max_rel_energy_drift=2e-6)
    assert validate.period(drifting, lam, 0.5) is not None


@pytest.mark.parametrize("lam", [0.3, -0.3])
def test_closed_form_wavefunctions_are_orthonormal(lam):
    """The closed-form moments behind the wavefn check, against a
    trapezoid rule in the coordinate that flattens the measure."""
    r = math.sqrt(abs(lam))
    if lam > 0:
        half, ymap = 60.0, lambda u: math.sinh(r * u) / r
    else:
        half, ymap = math.pi / (2 * r), lambda u: math.sin(r * u) / r
    n = 20000
    us = [-half + 2 * half * (i + 0.5) / n for i in range(n)]
    ys = [ymap(u) for u in us]
    psis = [validate.normalized_wavefunction(m, lam) for m in range(3)]
    vals = [[psi(y) for y in ys] for psi in psis]
    for i in range(3):
        for j in range(i, 3):
            overlap = 2 * half / n * sum(a * b for a, b in zip(vals[i], vals[j]))
            assert abs(overlap - (i == j)) < 1e-9


# -- CLI outputs --------------------------------------------------------------


def test_cli_spectrum_and_potential():
    rows = []
    for lam, top in ((0.8, 1), (0.4, 2), (0.3, 3)):
        for m in range(top + 1):
            spacing = 1 - (m + 0.5) * lam if m < top else ""
            rows.append((lam, "level", float(m), validate.energy(lam, m),
                         spacing, True))
    header = ["lambda", "kind", "m", "e", "spacing", "bound"]
    assert validate.cli_spectrum(csv(header, rows)) is None
    rows[4] = rows[4][:3] + (rows[4][3] + 1e-9,) + rows[4][4:]
    assert validate.cli_spectrum(csv(header, rows)) is not None
    assert validate.cli_spectrum(csv(header, rows[:-1])) is not None

    rows = []
    for lam in (-2.0, -1.0, 1.0, 2.0):
        edge = 1 / math.sqrt(-lam) if lam < 0 else 5.0
        for i in range(201):
            x = -edge + 2 * edge * (i + 1) / 202 if lam < 0 \
                else -edge + 2 * edge * i / 200
            rows.append((lam, "sample", x, 0.5 * x * x / (1 + lam * x * x)))
        if lam > 0:
            rows.append((lam, "asymptote", "", 0.5 / lam))
    header = ["lambda", "kind", "x", "value"]
    assert validate.cli_potential(csv(header, rows)) is None
    rows[10] = rows[10][:3] + (rows[10][3] * (1 + 1e-9),)
    assert validate.cli_potential(csv(header, rows)) is not None


def test_cli_gram_sl_classical_verify():
    sizes = {-0.3: 9, -0.1: 9, 0.1: 9, 0.3: 4}
    rows = [(lam, i, j, float(i == j)) for lam, s in sizes.items()
            for i in range(s) for j in range(s)]
    header = ["lambda", "i", "j", "overlap"]
    assert validate.cli_gram(csv(header, rows)) is None
    rows[5] = rows[5][:3] + (1e-7,)
    assert validate.cli_gram(csv(header, rows)) is not None

    ks = {-0.3: 7, -0.1: 7, 0.0: 7, 0.15: 7, 0.3: 4}
    rows = []
    for lam, k in ks.items():
        for grid, err in ((512, 1e-3), (1024, 1e-8)):
            for m in range(k):
                e = validate.energy(lam, m) + err
                rows.append((lam, grid, m, e, e, ""))
    header = ["lambda", "grid", "m", "raw", "extrapolated", "error_estimate"]
    assert validate.cli_sl(csv(header, rows)) is None
    rows[-1] = rows[-1][:4] + (rows[-1][4] + 1e-5, "")
    assert validate.cli_sl(csv(header, rows)) is not None

    w = 1 / math.sqrt(1.5)
    rows = [(t, math.cos(w * t), -w * math.sin(w * t), 1 / 3)
            for t in (i * 3 * 2 * math.pi / w / 3000 for i in range(3001))]
    header = ["t", "x", "v", "E"]
    assert validate.cli_classical(csv(header, rows)) is None
    rows[100] = (rows[100][0], rows[100][1] + 1e-3) + rows[100][2:]
    assert validate.cli_classical(csv(header, rows)) is not None

    rec = '{"check": "c", "parameters": {}, "metric": %s, "threshold": 1.0, "pass": %s}'
    good = "[" + ",".join([rec % ("0.5", "true")] * 53) + "]"
    assert validate.cli_verify(good.encode()) is None
    bad = "[" + ",".join([rec % ("0.5", "true")] * 52 + [rec % ("2.0", "false")]) + "]"
    assert validate.cli_verify(bad.encode()) is not None
    assert validate.cli_verify(b"[]") is not None


def test_golden_copies_are_right():
    """The golden tables hold what the closed forms say, independently of
    the package: Rodrigues polynomials solve the defining equation and
    the ladder energies match e_n = (n + 1/2) - n^2 lam / 2 exactly."""
    text = (validate.GOLDEN / "polys_rodrigues.csv").read_bytes()
    _, rows = validate._rows(text)
    by_n = {}
    for r in rows:
        by_n.setdefault(int(r["n"]), {})[int(r["power"])] = Fraction(r["coefficient"])
    assert sorted(by_n) == list(range(7))
    for n, cs in by_n.items():
        coeffs = [cs.get(k, Fraction(0)) for k in range(max(cs) + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        assert validate.hermite_poly(poly(coeffs), n, Fraction(1, 5)) is None

    _, rows = validate._rows((validate.GOLDEN / "ladder.csv").read_bytes())
    assert [int(r["n"]) for r in rows] == [0, 1, 2, 3]
    for r in rows:
        n = int(r["n"])
        assert r["exact_match"] == "True"
        assert float(r["full_energy"]) == float(validate.energy(Fraction(3, 10), n))

    _, rows = validate._rows((validate.GOLDEN / "polys.csv").read_bytes())
    assert {r["lambda"] for r in rows} == {"generic"}
    assert sorted({int(r["n"]) for r in rows}) == list(range(7))


def test_tampered_outputs_are_rejected():
    for label in ("polys", "polys_rodrigues", "ladder"):
        good = (validate.GOLDEN / f"{label}.csv").read_bytes()
        assert validate.cli_output(label, good) is None
        assert validate.cli_output(label, good.replace(b"1", b"7", 1)) is not None
    assert validate.cli_output("spectrum", b"garbage") is not None


@pytest.mark.parametrize("label,argv", workloads.CLI_TABLES)
def test_real_cli_outputs_validate(label, argv):
    out = subprocess.run([sys.executable, "-m", "lambda_osc.cli"] + argv,
                         capture_output=True, cwd=ROOT, check=True).stdout
    assert validate.cli_output(label, out) is None


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(7) == gen(7)
    if name in ("exact-algebra", "lambda-sweep"):
        assert gen(7) != gen(8)


def test_inputs_avoid_recorded_failures():
    for seed in range(200):
        for case in workloads.exact_algebra(seed):
            if case["lam"] != "generic":
                lam = Fraction(case["lam"])
                assert lam != 0 and (lam < 0 or case["n"] < 1 / lam)
        for pt in workloads.lambda_sweep(seed):
            lam = pt["lam"]
            assert not (pt["gram"] and 0 < lam <= 0.05)
            assert not -0.0015 < lam < 0 and lam > -0.73
            assert all(abs(lam - x) > 1e-3 for x, _ in
                       workloads.EXCLUDED_FOR_SAFETY
                       + workloads.KEPT_OUT_FOR_STEADINESS)
            assert lam > 0 or -lam * pt["amplitude"] ** 2 <= 0.5 + 1e-12


# -- tracer -------------------------------------------------------------------


def test_tracer_reaches_names_imported_elsewhere():
    code = """
import json, sys
sys.path.insert(0, "perfbench")
import tracer
import lambda_osc.cli as cli
from lambda_osc import verification, wavefunctions
orig = wavefunctions.gram_matrix
checks = {fn for fns in verification.ALL_CHECKS.values() for fn in fns}
t = tracer.Tracer()
tracer.install(t, cli_label="gram")
assert cli.gram_matrix is wavefunctions.gram_matrix is not orig
assert verification.gram_matrix is wavefunctions.gram_matrix
assert not checks & {fn for fns in verification.ALL_CHECKS.values() for fn in fns}
verification.run_checks(["spectrum"])
cli.main(["gram", "--lambda", "-0.5", "--mmax", "2"])
print(json.dumps(t.summary()))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         cwd=ROOT, check=True, text=True).stdout
    import json

    summary = json.loads(out.strip().splitlines()[-1])
    times, counts = summary["times"], summary["counts"]
    for name in ("cli.gram", "wavefunctions.gram_matrix",
                 "quadrature.integrate_measure", "output.emit",
                 "verification.check_spectrum_values"):
        assert times[name] > 0, name
    assert counts["quadrature.calls"] == 6  # 3 norms + 3 off-diagonal pairs
    assert counts["quadrature.points"] > 0
    assert times["cli.gram"] >= times["wavefunctions.gram_matrix"]


# -- child processes ----------------------------------------------------------


def test_child_memory_ceiling_and_deadline(tmp_path):
    import run

    # a 4 GiB request fails at once under the 3 GiB address-space ceiling
    hog = run.spawn([sys.executable, "-c", "bytearray(4 << 30)"],
                    tmp_path / "hog.out", 30)
    assert hog.problem and "MemoryError" in hog.problem
    slow = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                     tmp_path / "slow.out", 0.5)
    assert slow.problem and "deadline" in slow.problem and slow.wall < 10
    ok = run.spawn([sys.executable, "-c", "print('hi')"], tmp_path / "ok.out", 30)
    assert ok.problem is None and ok.stdout == b"hi\n" and ok.peak_mb > 1
