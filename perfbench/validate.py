"""Output validators for the benchmark.

* Exact CLI outputs (``polys``, the Rodrigues ``polys`` table, ``ladder``)
  are compared byte for byte with golden copies in ``golden/``.
* Float CLI outputs are checked against closed forms at the acceptance
  tolerances.
* Library results of the exact routes are checked against the defining
  equation of the deformed Hermite polynomials, in exact arithmetic.
* Library results of the numeric oracles are checked against the closed
  forms they are meant to reproduce.

Every check returns None when the output is valid and a one-line reason
otherwise.  Nothing here imports lambda_osc: the checks use their own
arithmetic and read only the plain attributes of returned objects
(``coeffs``, ``num``, ``den``, ``period``, ...), so a defect in the
package cannot vouch for itself.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# acceptance tolerances (README "Tests and the acceptance suite")
SPECTRUM_TOL = 1e-12
SL_TOL = 1e-6
GRAM_TOL = 1e-8
PERIOD_TOL = 1e-4
DRIFT_TOL = 1e-6
VERIFY_RECORDS = 53


def energy(lam, m):
    """Closed-form level e_m = (m + 1/2) - m^2 lam / 2."""
    if isinstance(lam, Fraction):
        return m + Fraction(1, 2) - Fraction(m * m, 2) * lam
    return (m + 0.5) - 0.5 * m * m * lam


# -- exact routes -------------------------------------------------------------


def _ring(c):
    """A coefficient as a list of Fractions in powers of lambda."""
    if isinstance(c, (int, Fraction)):
        return [Fraction(c)] if c else []
    return list(c.coeffs)


def _ring_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def hermite_poly(poly, n, lam):
    """``poly`` solves (1 + lam y^2) h'' + (lam - 2) y h' + (2n - lam n^2) h = 0.

    ``lam`` is a Fraction (fixed mode) or None (generic mode: coefficients
    are polynomials in lambda and the identity must hold in each power).
    Also requires a nonzero polynomial of degree d <= n with the parity of
    n.  The equation allows d < n only at lam = 2/(n + d), as for the
    generating route past the bound range when 1/lam is an integer.
    """
    cs = [_ring(c) for c in poly.coeffs]
    while cs and not any(cs[-1]):
        cs.pop()
    if not cs or len(cs) > n + 1:
        return f"degree {len(cs) - 1}, expected at most {n}"
    if any(any(cs[k]) for k in range(len(cs) - 1) if (n - k) % 2):
        return "coefficient of the wrong parity"
    zero = []
    for k in range(len(cs)):
        a_k = cs[k]
        a_k2 = cs[k + 2] if k + 2 < len(cs) else zero
        # residual of the y^k coefficient:
        # (k+2)(k+1) a_{k+2} + 2(n-k) a_k + lam (k^2 - n^2) a_k
        width = max(len(a_k2), len(a_k) + 1)
        res = [Fraction(0)] * width
        for j, c in enumerate(a_k2):
            res[j] += (k + 2) * (k + 1) * c
        for j, c in enumerate(a_k):
            res[j] += 2 * (n - k) * c
        if lam is None:
            for j, c in enumerate(a_k):
                res[j + 1] += (k * k - n * n) * c
        else:
            for j, c in enumerate(a_k):
                res[j] += lam * (k * k - n * n) * c
        if any(res):
            return f"defining equation fails at power {k}"
    return None


def proportional(pa, pb, c):
    """pa = c * pb exactly, with c nonzero (c may be a ratio in lambda)."""
    if c is None:
        return "reported not proportional"
    num, den = (c.num, c.den) if hasattr(c, "num") else (c, 1)
    num, den = _ring(num), _ring(den)
    if not any(num):
        return "zero proportionality constant"
    a, b = list(pa.coeffs), list(pb.coeffs)
    if len(a) != len(b):
        return "degrees differ"
    for x, y in zip(a, b):
        lhs, rhs = _ring_mul(_ring(x), den), _ring_mul(_ring(y), num)
        width = max(len(lhs), len(rhs))
        lhs += [Fraction(0)] * (width - len(lhs))
        rhs += [Fraction(0)] * (width - len(rhs))
        if lhs != rhs:
            return "pa != c * pb"
    return None


def ladder_energies(values, n, lam):
    """Chain energies E_k with E_k + 1/2 equal to the closed form, exactly."""
    if len(values) != n + 1:
        return f"{len(values)} energies, expected {n + 1}"
    for k, e in enumerate(values):
        if e + Fraction(1, 2) != energy(lam, k):
            return f"level {k}: {e} + 1/2 != closed form"
    return None


# -- numeric oracles ----------------------------------------------------------


def gram(matrix, size):
    """Normalized overlap matrix equal to the identity within GRAM_TOL."""
    rows = [list(map(float, r)) for r in matrix]
    if len(rows) != size or any(len(r) != size for r in rows):
        return f"shape {len(rows)}, expected {size}"
    dev = max(
        abs(v - (i == j)) for i, r in enumerate(rows) for j, v in enumerate(r)
    )
    return None if dev <= GRAM_TOL else f"|G - I| = {dev:.3e}"


def levels(values, lam, k):
    """Refined eigenvalues against the closed form within SL_TOL."""
    vals = [float(v) for v in values]
    if len(vals) != k:
        return f"{len(vals)} levels, expected {k}"
    dev = max(abs(v - energy(lam, m)) for m, v in enumerate(vals))
    return None if dev <= SL_TOL else f"eigenvalue error {dev:.3e}"


def nodes(roots, m, lam):
    """m distinct zeros, symmetric about 0, inside the domain."""
    if len(roots) != m:
        return f"{len(roots)} zeros, expected {m}"
    if any(b <= a for a, b in zip(roots, roots[1:])):
        return "zeros not distinct and increasing"
    if any(abs(a + b) > 1e-9 * max(1.0, abs(a)) for a, b in
           zip(roots, reversed(roots))):
        return "zeros not symmetric"
    if lam < 0 and roots and abs(roots[-1]) >= 1 / math.sqrt(-lam):
        return "zero outside the walls"
    return None


def period(probe, lam, amplitude):
    """Measured period against 2 pi sqrt(1 + lam A^2), and energy drift."""
    law = 2 * math.pi * math.sqrt(1 + lam * amplitude * amplitude)
    rel = abs(probe.period - law) / law
    if rel > PERIOD_TOL:
        return f"period error {rel:.3e}"
    if probe.max_rel_energy_drift > DRIFT_TOL:
        return f"energy drift {probe.max_rel_energy_drift:.3e}"
    return None


# -- CLI outputs --------------------------------------------------------------


def _rows(text):
    lines = text.decode().split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:-1]]


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _golden(label):
    def check(text):
        want = (GOLDEN / f"{label}.csv").read_bytes()
        return None if text == want else "differs from the golden copy"
    return check


def cli_spectrum(text):
    _, rows = _rows(text)
    want = {0.8: 2, 0.4: 3, 0.3: 4}  # bound levels at the defaults
    seen = {}
    for r in rows:
        lam, m = float(r["lambda"]), int(float(r["m"]))
        seen[lam] = seen.get(lam, 0) + 1
        if not _close(float(r["e"]), energy(lam, m), SPECTRUM_TOL):
            return f"lambda {lam} m {m}: energy off the closed form"
        if r["spacing"] and not _close(
                float(r["spacing"]), 1 - (m + 0.5) * lam, SPECTRUM_TOL):
            return f"lambda {lam} m {m}: spacing off the closed form"
        if r["kind"] != "level" or r["bound"] != "True":
            return f"lambda {lam} m {m}: not a bound level"
    return None if seen == want else f"levels per lambda {seen}"


def cli_potential(text):
    _, rows = _rows(text)
    count = {}
    for r in rows:
        lam = float(r["lambda"])
        if r["kind"] == "asymptote":
            if lam <= 0 or not _close(float(r["value"]), 0.5 / lam, 1e-12):
                return f"lambda {lam}: bad asymptote"
            continue
        x = float(r["x"])
        if lam < 0 and abs(x) >= 1 / math.sqrt(-lam):
            return f"lambda {lam}: sample outside the walls"
        want = 0.5 * x * x / (1 + lam * x * x)
        if not _close(float(r["value"]), want, 1e-12):
            return f"lambda {lam} x {x}: value off the closed form"
        count[lam] = count.get(lam, 0) + 1
    want = {-2.0: 201, -1.0: 201, 1.0: 201, 2.0: 201}
    return None if count == want else f"samples per lambda {count}"


def hermite_float(n_max, lam):
    """Generating-normalization coefficients from the three-term recursion
    h_{n+1} = 2y(1 - n lam) h_n - n(2 - (n-1) lam) h_{n-1}."""
    polys = [[1.0], [0.0, 2.0]]
    for n in range(1, n_max):
        a = [0.0] + [2 * (1 - n * lam) * c for c in polys[n]]
        for k, c in enumerate(polys[n - 1]):
            a[k] -= n * (2 - (n - 1) * lam) * c
        polys.append(a)
    return polys[: n_max + 1]


def _moment(lam, j):
    """Integral of y^(2j) (1 + lam y^2)^(-1/lam - 1/2) over the domain."""
    if lam > 0:
        a, b = j + 0.5, 1 / lam - j
        s = lam
    else:
        a, b = j + 0.5, -1 / lam + 0.5
        s = -lam
    return s ** (-j - 0.5) * math.exp(
        math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def normalized_wavefunction(m, lam):
    """psi_m normalized to unit measure-norm, from closed-form moments."""
    cs = hermite_float(m, lam)[m]
    norm2 = sum(
        ci * ck * _moment(lam, (i + k) // 2)
        for i, ci in enumerate(cs) for k, ck in enumerate(cs) if (i + k) % 2 == 0
    )
    scale = 1 / math.sqrt(norm2)

    def psi(y):
        h = sum(c * y ** k for k, c in enumerate(cs))
        return scale * h * (1 + lam * y * y) ** (-0.5 / lam)
    return psi


def cli_wavefn(text):
    header, rows = _rows(text)
    lam = 0.3
    ms = [int(h.split("_")[1]) for h in header[1:]]
    if ms != [0, 1, 2, 3] or len(rows) != 201:
        return f"columns {header}, {len(rows)} rows"
    for m in ms:
        psi = normalized_wavefunction(m, lam)
        col = f"psi_{m}"
        want = [psi(float(r["y"])) for r in rows]
        peak = max(abs(w) for w in want)
        dev = max(abs(float(r[col]) - w) for r, w in zip(rows, want))
        if dev > GRAM_TOL * peak:
            return f"psi_{m} off the closed form by {dev / peak:.3e}"
    return None


def cli_gram(text):
    _, rows = _rows(text)
    mats = {}
    for r in rows:
        lam = float(r["lambda"])
        mats.setdefault(lam, {})[int(r["i"]), int(r["j"])] = float(r["overlap"])
    want = {-0.3: 9, -0.1: 9, 0.1: 9, 0.3: 4}
    if sorted(mats) != sorted(want):
        return f"lambdas {sorted(mats)}"
    for lam, size in want.items():
        m = mats[lam]
        if len(m) != size * size:
            return f"lambda {lam}: {len(m)} entries"
        err = gram([[m[i, j] for j in range(size)] for i in range(size)], size)
        if err:
            return f"lambda {lam}: {err}"
    return None


def cli_sl(text):
    _, rows = _rows(text)
    final = {}
    for r in rows:
        lam, grid = float(r["lambda"]), int(r["grid"])
        if grid > final.get(lam, (0, None))[0]:
            final[lam] = (grid, {})
        if grid == final[lam][0]:
            final[lam][1][int(r["m"])] = float(r["extrapolated"])
    want = {-0.3: 7, -0.1: 7, 0.0: 7, 0.15: 7, 0.3: 4}
    if sorted(final) != sorted(want):
        return f"lambdas {sorted(final)}"
    for lam, k in want.items():
        vals = final[lam][1]
        err = levels([vals.get(m, math.inf) for m in range(len(vals))], lam, k)
        if err:
            return f"lambda {lam}: {err}"
    return None


def cli_classical(text):
    _, rows = _rows(text)
    lam, amp = 0.5, 1.0
    omega = 1 / math.sqrt(1 + lam * amp * amp)
    e0 = 0.5 * amp * amp / (1 + lam * amp * amp)
    if len(rows) != 3001:
        return f"{len(rows)} samples, expected 3001"
    for r in rows:
        t, x, v, e = (float(r[c]) for c in ("t", "x", "v", "E"))
        if abs(e - e0) > DRIFT_TOL * e0:
            return f"t {t}: energy drift"
        if abs(x - amp * math.cos(omega * t)) > PERIOD_TOL * amp:
            return f"t {t}: position off the exact orbit"
        if abs(v + amp * omega * math.sin(omega * t)) > PERIOD_TOL * amp:
            return f"t {t}: velocity off the exact orbit"
    return None


def cli_verify(text):
    records = json.loads(text)
    if len(records) != VERIFY_RECORDS:
        return f"{len(records)} check records, expected {VERIFY_RECORDS}"
    for r in records:
        if not (r["pass"] is True and r["metric"] <= r["threshold"]):
            return f"check {r['check']} {r['parameters']} failed"
    return None


CLI_CHECKS = {
    "spectrum": cli_spectrum,
    "potential": cli_potential,
    "polys": _golden("polys"),
    "polys_rodrigues": _golden("polys_rodrigues"),
    "wavefn": cli_wavefn,
    "gram": cli_gram,
    "sl": cli_sl,
    "ladder": _golden("ladder"),
    "classical": cli_classical,
    "verify": cli_verify,
}


def cli_output(label, text):
    """Validate one CLI output; parse errors count as invalid output."""
    try:
        return CLI_CHECKS[label](text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"
