import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lambda_osc
from lambda_osc.cli import _linspace, main, parse_deformation
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParsing:
    def test_fraction_forms(self):
        assert parse_deformation("3/10") == Fraction(3, 10)
        assert parse_deformation("0.3") == 0.3
        assert parse_deformation("0.3", exact=True) == Fraction(3, 10)
        assert parse_deformation("-1/5") == Fraction(-1, 5)

    @pytest.mark.parametrize("exact", [False, True])
    def test_zero_denominator_is_a_value_error(self, exact):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_deformation("1/0", exact=exact)

    @pytest.mark.parametrize("command", ["spectrum", "potential", "polys",
                                         "wavefn", "gram", "sl", "ladder",
                                         "classical", "verify"])
    def test_zero_denominator_reaches_the_cli_as_an_error(self, command,
                                                          capsys):
        assert main([command, "--lambda", "1/0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: deformation 1/0 has a zero denominator\n"


class TestSpectrumCommand:
    def test_published_rows(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--lambda", "0.3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,kind,m,e,spacing,bound"
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert values == pytest.approx([0.5, 1.35, 1.90, 2.15], abs=1e-12)
        assert all(line.endswith("True") for line in lines[1:])

    def test_undeformed(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--lambda", "0", "--mmax", "4")
        values = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
        assert values == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_negative_deformation(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--lambda", "-0.3", "--mmax", "3")
        values = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
        assert values == pytest.approx([0.5, 1.65, 3.1, 4.85], abs=1e-12)

    def test_figure3_has_curves_and_points(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--figure3", "--format", "json")
        rows = json.loads(out)
        lams = {r["lambda"] for r in rows}
        assert lams == {0.3, 0.15}
        kinds = {r["kind"] for r in rows}
        assert kinds == {"level", "curve"}
        bound_counts = {
            lam: sum(1 for r in rows if r["lambda"] == lam
                     and r["kind"] == "level" and r["bound"])
            for lam in lams
        }
        assert bound_counts[0.3] == 4
        assert bound_counts[0.15] == 7

    def test_figure4_includes_linear_reference(self, capsys):
        _, out = run_cli(capsys, "spectrum", "--figure4", "--format", "json")
        rows = json.loads(out)
        assert {r["lambda"] for r in rows} == {0.3, -0.3, 0.0}

    def test_invalid_deformation_fails(self, capsys):
        code = main(["spectrum", "--lambda", "nan"])
        assert code == 1

    @pytest.mark.parametrize("figure", ["3", "4"])
    def test_figure_refuses_a_deformation(self, figure, capsys):
        # a figure draws fixed deformations; --lambda is refused, not dropped
        assert main(["spectrum", f"--figure{figure}", "--lambda", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: this spectrum run does not read --lambda\n"

    def test_one_figure_at_a_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--figure3", "--figure4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --figure4: not allowed with argument --figure3" in err

    @pytest.mark.parametrize("figure", ["--figure3", "--figure4"])
    def test_figure_csv_cells_are_plain_floats(self, capsys, figure):
        # CSV must not spell a numpy float's type, np.float64(...)
        _, out = run_cli(capsys, "spectrum", figure)
        lines = out.strip().split("\n")
        curves = [line.split(",") for line in lines if ",curve," in line]
        assert curves and "np." not in out
        for lam, _, m, e, spacing, bound in curves:
            float(lam), float(m), float(e)
            assert spacing == bound == ""


class TestPotentialCommand:
    def test_asymptote_row(self, capsys):
        _, out = run_cli(capsys, "potential", "--lambda", "1", "--points", "9",
                         "--format", "json")
        rows = json.loads(out)
        asym = [r for r in rows if r["kind"] == "asymptote"]
        assert len(asym) == 1
        assert asym[0]["value"] == 0.5

    def test_negative_domain_restricted(self, capsys):
        _, out = run_cli(capsys, "potential", "--lambda", "-1", "--points", "11")
        xs = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
        assert all(-1 < x < 1 for x in xs)

    def test_zero_is_parabola(self, capsys):
        _, out = run_cli(capsys, "potential", "--lambda", "0", "--points", "5",
                         "--xmax", "2", "--format", "json")
        rows = json.loads(out)
        for r in rows:
            assert r["value"] == pytest.approx(0.5 * r["x"] ** 2)

    @pytest.mark.parametrize("start, stop", [
        (-5.0, 5.0), (-12.5, 12.5), (-1 / math.sqrt(2.0), 1 / math.sqrt(2.0)),
        (-1 / math.sqrt(0.37), 1 / math.sqrt(0.37)), (-3.3, 0.1),
    ])
    def test_samples_are_numpy_linspace_bit_for_bit(self, start, stop):
        for num in [*range(0, 500), 1001, 4001]:
            for sl in (slice(None), slice(1, -1)):  # the wall trim of lam < 0
                ours = _linspace(start, stop, num)[sl]
                ref = np.linspace(start, stop, num)[sl].tolist()
                assert list(map(float.hex, ours)) == list(map(float.hex, ref))

    def test_default_output_is_pinned(self, capsys):
        _, out = run_cli(capsys, "potential")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == (
            "b006661b30052db29f5ce4fa723824f60010526db39b11ecc240c3115255d5ce")

    def test_zero_points_leave_the_asymptotes(self, capsys):
        assert run_cli(capsys, "potential", "--points", "0") == (0, (
            "lambda,kind,x,value\n1.0,asymptote,,0.5\n2.0,asymptote,,0.25\n"))

    def test_one_point_is_the_left_end_or_the_centre(self, capsys):
        assert run_cli(capsys, "potential", "--points", "1") == (0, (
            "lambda,kind,x,value\n"
            "-2.0,sample,0.0,0.0\n"
            "-1.0,sample,0.0,0.0\n"
            "1.0,sample,-5.0,0.4807692307692308\n"
            "1.0,asymptote,,0.5\n"
            "2.0,sample,-5.0,0.24509803921568626\n"
            "2.0,asymptote,,0.25\n"))

    def test_negative_point_count_is_an_error(self, capsys):
        assert main(["potential", "--points", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Number of samples, -1, must be non-negative.\n")

    @pytest.mark.parametrize("points", ["-1", "-2"])
    def test_negative_point_count_between_the_walls_is_an_error(
            self, points, capsys):
        # points + 2 samples span the walls; -1 and -2 must not pass as 1, 0
        assert main(["potential", "--lambda", "-1", "--points", points]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: Number of samples, {points}, must be non-negative.\n")


class TestPolysCommand:
    def test_generic_table_json(self, capsys):
        _, out = run_cli(capsys, "polys", "--nmax", "6", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 7
        assert rows[2]["coeffs"] == ["-2", "0", "4 - 4*L"]
        assert rows[0]["lambda"] == "generic"

    def test_classical_table(self, capsys):
        _, out = run_cli(capsys, "polys", "--lambda", "0", "--nmax", "3",
                         "--format", "json")
        rows = json.loads(out)
        assert rows[3]["coeffs"] == ["0", "-12", "0", "8"]

    def test_rodrigues_requires_fixed_value(self, capsys):
        code = main(["polys", "--normalization", "rodrigues"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the derivative route needs a fixed nonzero rational "
            "deformation (--lambda)\n")

    @pytest.mark.parametrize("argv, message", [
        (["--normalization", "rodrigues", "--lambda", "0"],
         "the derivative route needs a fixed nonzero rational deformation "
         "(--lambda)"),
        (["--ratios"], "ratio table needs a fixed nonzero rational deformation"),
        (["--ratios", "--lambda", "0"],
         "ratio table needs a fixed nonzero rational deformation"),
    ])
    def test_refusals_are_error_lines(self, argv, message, capsys):
        assert main(["polys", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_ratio_table(self, capsys):
        _, out = run_cli(capsys, "polys", "--lambda", "1/5", "--normalization",
                         "rodrigues", "--nmax", "2", "--ratios", "--format",
                         "json")
        rows = json.loads(out)
        assert rows[2]["ratio_to_generating"] == "7/10"  # (2 - 3/5)/2

    @pytest.mark.parametrize("lam, top", [
        ("1/3", "8/3"), ("generic", "4 - 4*L"),
    ])
    def test_json_row(self, lam, top, capsys):
        # a row takes n from its place and the route from --normalization
        flags = [] if lam == "generic" else ["--lambda", lam]
        _, out = run_cli(capsys, "polys", *flags, "--nmax", "2", "--format",
                         "json")
        assert json.loads(out)[2] == {
            "n": 2, "normalization": "generating", "lambda": lam,
            "coeffs": ["-2", "0", top],
        }

    def test_series_rows_name_their_solution(self, capsys):
        # a0 = 1 at even n (series_h1), a1 = 1 at odd n (series_h2)
        _, out = run_cli(capsys, "polys", "--normalization", "series",
                         "--format", "json")
        rows = json.loads(out)
        assert [r["n"] for r in rows] == list(range(7))
        assert [r["normalization"] for r in rows[4:6]] == [
            "series_h1", "series_h2"]


class TestWavefnCommand:
    def test_overflow_is_an_error(self, capsys):
        # the recursion leaves float range at this index; RuntimeWarnings
        # are errors under pytest, so a numpy warning would fail the call
        assert main(["wavefn", "--m", "200", "--lambda", "-0.5",
                     "--points", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: psi_200 is not finite at deformation -0.5: its "
            "unnormalized values overflow float range (--normalized stays "
            "in range)\n")

    def test_normalized_stays_in_float_range(self, capsys):
        # the orthonormal recursion never forms the unnormalized values
        code, out = run_cli(capsys, "wavefn", "--normalized", "--m", "200",
                            "--lambda", "-0.5", "--points", "5")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.split()[1:]]
        assert len(values) == 5 and all(map(math.isfinite, values))
        assert max(map(abs, values)) > 0.1

    def test_last_representable_index_still_samples(self, capsys):
        code, out = run_cli(capsys, "wavefn", "--normalized", "--m", "150",
                            "--lambda", "-0.5", "--points", "5")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.split()[1:]]
        assert len(values) == 5 and all(map(math.isfinite, values))

    @pytest.mark.parametrize("flag, value", [
        ("--ymin", "-3"), ("--ymax", "9"), ("--ymax", "-9"),
        ("--ymin", "1.5"), ("--ymax", repr(1 / math.sqrt(0.5))),
    ])
    def test_sample_outside_the_walls_refused(self, flag, value, capsys):
        # the walls are open: a sample at the wall is refused too
        assert main(["wavefn", "--lambda", "-0.5", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} {float(value)} lies outside the walls at "
            f"+-{1 / math.sqrt(0.5)} of deformation -0.5\n")

    def test_ymax_inside_the_walls_is_honoured(self, capsys):
        code, out = run_cli(capsys, "wavefn", "--lambda", "-0.5", "--ymax",
                            "1.25", "--points", "5")
        assert code == 0
        ys = [float(line.split(",")[0]) for line in out.split()[1:]]
        assert ys == [-1.25, -0.625, 0.0, 0.625, 1.25]
        code, out = run_cli(capsys, "wavefn", "--lambda", "-0.5", "--ymin",
                            "-1", "--ymax", "0.5", "--points", "4")
        assert [float(line.split(",")[0]) for line in out.split()[1:]] == [
            -1.0, -0.5, 0.0, 0.5]

    def test_default_grid_between_the_walls(self, capsys):
        _, out = run_cli(capsys, "wavefn", "--lambda", "-0.5", "--points", "3")
        ys = [float(line.split(",")[0]) for line in out.split()[1:]]
        wall = 1 / math.sqrt(0.5)
        assert ys == [-0.999 * wall, 0.0, 0.999 * wall]

    def test_csv_columns(self, capsys):
        _, out = run_cli(capsys, "wavefn", "--lambda", "0.3", "--m", "0",
                         "--m", "2", "--points", "7")
        lines = out.strip().split("\n")
        assert lines[0] == "y,psi_0,psi_2"
        assert len(lines) == 8

    def test_ground_state_center_value(self, capsys):
        _, out = run_cli(capsys, "wavefn", "--lambda", "0.3", "--m", "0",
                         "--points", "3", "--ymax", "1", "--format", "json")
        data = json.loads(out)
        center = data["samples"][1]
        assert center["y"] == 0.0
        assert center["psi_0"] == 1.0

    def test_default_indices_stop_at_three(self, capsys):
        # 10^9 bound states at this deformation; the default samples 0..3
        code, out = run_cli(capsys, "wavefn", "--normalized", "--lambda",
                            "1e-9", "--points", "5")
        assert code == 0
        assert out.split("\n")[0] == "y,psi_0,psi_1,psi_2,psi_3"

    def test_default_indices_stop_at_the_last_bound_one(self, capsys):
        _, out = run_cli(capsys, "wavefn", "--lambda", "0.4", "--points", "5")
        assert out.split("\n")[0] == "y,psi_0,psi_1,psi_2"

    def test_normalized_small_deformation(self, capsys):
        # the normalization is the closed form, with no quadrature
        code, out = run_cli(capsys, "wavefn", "--normalized", "--lambda",
                            "0.05", "--m", "0", "--points", "3", "--ymax",
                            "0", "--format", "json")
        assert code == 0
        center = json.loads(out)["samples"][0]["psi_0"]
        # 1/sqrt(M_0), M_0 = sqrt(20) B(1/2, 20) = sqrt(20) 4^20 20! 19!/40!
        mass = math.sqrt(20) * 4**20 * math.factorial(20) * math.factorial(19)
        assert center == pytest.approx(
            (math.factorial(40) / mass) ** 0.5, rel=1e-14)


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--spectrum", "--quiet")
        assert code == 0
        records = json.loads(out)
        assert records and all(r["pass"] for r in records)
        assert {r["check"] for r in records} == {"spectrum_values", "bound_counts"}

    def test_sl_with_deformation_override(self, capsys):
        code, out = run_cli(capsys, "verify", "--sl", "--lambda", "0.15",
                            "--quiet")
        assert code == 0
        records = json.loads(out)
        by_check = {r["check"] for r in records}
        assert "sl_eigenvalues" in by_check
        (sl_rec,) = [r for r in records if r["check"] == "sl_eigenvalues"]
        assert sl_rec["parameters"]["levels"] == 7

    def test_tol_override_without_deformation(self, capsys):
        code, out = run_cli(capsys, "verify", "--sl", "--tol", "1e-7",
                            "--quiet")
        assert code == 0
        records = json.loads(out)
        sl_recs = [r for r in records if r["check"] == "sl_eigenvalues"]
        assert len(sl_recs) == 5  # the default deformation values
        assert all(r["threshold"] == 1e-7 for r in sl_recs)


class TestImport:
    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # a fresh interpreter, so no other test has imported scipy yet
        src = Path(lambda_osc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        # the process pool of check_classical is imported lazily too
        probe = ("import sys, lambda_osc.cli; print(*(m in sys.modules for m "
                 "in ('scipy.linalg', 'concurrent.futures', "
                 "'multiprocessing')))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "False", "False"]

    @staticmethod
    def loaded_after(argv, modules):
        """Run one command in a fresh interpreter; which modules it loaded."""
        src = Path(lambda_osc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import contextlib, io, sys\n"
                 "from lambda_osc.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = main(sys.argv[2:])\n"
                 "print(code, *(m for m in sys.argv[1].split(',') "
                 "if m in sys.modules))")
        done = subprocess.run(
            [sys.executable, "-c", probe, ",".join(modules), *argv],
            env=env, capture_output=True, text=True, check=True)
        return done.stdout.split()

    @pytest.mark.parametrize("command", ["polys", "ladder", "spectrum",
                                         "potential", "classical",
                                         "spectrum --figure3"])
    def test_exact_commands_load_neither_numpy_nor_scipy(self, command):
        assert self.loaded_after(command.split(), ["numpy", "scipy"]) == ["0"]

    @pytest.mark.parametrize("argv", [["gram"], ["sl"],
                                      ["wavefn", "--normalized"], ["verify"]])
    def test_eigensolving_commands_load_no_scipy(self, argv):
        assert self.loaded_after(argv, ["numpy", "scipy"]) == ["0", "numpy"]

    CHECK_MODULES = ["lambda_osc.verification", "lambda_osc.classical",
                     "lambda_osc.factorization"]

    @pytest.mark.parametrize("argv", [["polys"], ["spectrum"], ["potential"],
                                      ["wavefn", "--normalized"]])
    def test_table_commands_load_no_checks(self, argv):
        assert self.loaded_after(argv, self.CHECK_MODULES) == ["0"]

    def test_trajectory_loads_only_the_integrator(self):
        assert self.loaded_after(["classical"], self.CHECK_MODULES) == [
            "0", "lambda_osc.classical"]

    EXACT_LAYER = ["lambda_osc.exact", "lambda_osc.polynomials",
                   "lambda_osc.hermite", "lambda_osc.spectrum"]

    def test_cli_import_loads_no_dataclasses_and_no_exact_layer(self):
        modules = ["dataclasses", "inspect", *self.EXACT_LAYER]
        src = Path(lambda_osc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys, lambda_osc.cli; print(*(m for m in "
                 "sys.argv[1].split(',') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe, ",".join(modules)],
                              env=env, capture_output=True, text=True,
                              check=True)
        assert done.stdout.split() == []

    @pytest.mark.parametrize("argv", [["potential"], ["classical"]])
    def test_commands_off_the_exact_layer_run_without_it(self, argv):
        assert self.loaded_after(argv, self.EXACT_LAYER) == ["0"]

    def test_spectrum_loads_the_closed_form_only(self):
        assert self.loaded_after(["spectrum"], self.EXACT_LAYER) == [
            "0", "lambda_osc.spectrum"]

    def test_no_module_imports_dataclasses(self):
        # the value classes are named tuples; dataclasses costs start-up
        pkg = Path(lambda_osc.__file__).resolve().parent
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert "dataclasses" not in names, path.name

    def test_only_the_oracle_loads_quadrature(self):
        # norms are closed forms; quadrature is the overlap oracle of gram
        quad = ["lambda_osc.quadrature"]
        assert self.loaded_after(["wavefn", "--normalized"], quad) == ["0"]
        assert self.loaded_after(["gram"], quad) == ["0", *quad]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(["spectrum", "--figure4", "--out", str(path), "--quiet"])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_17_digits(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        main(["spectrum", "--lambda", "0.3", "--format", "json", "--out",
              str(out), "--quiet"])
        capsys.readouterr()
        text = out.read_text()
        assert "0.29999999999999999" in text  # 17 significant digits of 0.3


class TestTinyPositiveDeformation:
    @staticmethod
    def _limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    @pytest.mark.parametrize("argv", [["spectrum", "--lambda", "1e-300"],
                                      ["ladder", "--lambda", "1/1000000000"]])
    def test_default_table_ends_in_bounded_time(self, argv):
        # 10^300 and 10^9 levels are bound; the default stops at index 8
        src = Path(lambda_osc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "lambda_osc.cli", *argv], env=env,
            capture_output=True, text=True, timeout=10,
            preexec_fn=self._limit_memory)
        assert (done.returncode, done.stderr) == (0, "")
        assert len(done.stdout.strip().split("\n")) == 1 + 9

    @pytest.mark.parametrize("lam", ["0.001", "1e-300"])
    def test_sl_default_ends_in_bounded_time(self, lam):
        # 1000 and 10^300 levels are bound; the default refines seven
        src = Path(lambda_osc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "lambda_osc.cli", "sl", "--lambda", lam,
             "--format", "json"], env=env,
            capture_output=True, text=True, timeout=10,
            preexec_fn=self._limit_memory)
        assert (done.returncode, done.stderr) == (0, "")
        (rec,) = json.loads(done.stdout)
        assert rec["levels"] == len(rec["eigenvalues"]) == 7

    @pytest.mark.parametrize("command", ["spectrum", "wavefn", "sl --k 1"])
    def test_cutoff_past_float_range_is_an_error(self, command, capsys):
        assert main([*command.split(), "--lambda", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: deformation 1e-320 is too small: its "
                                "cutoff 1/lambda overflows float range\n")


class TestLadderCommand:
    def test_exact_matches(self, capsys):
        _, out = run_cli(capsys, "ladder", "--lambda", "3/10", "--format",
                         "json")
        rows = json.loads(out)
        assert [r["chain_energy"] for r in rows] == pytest.approx(
            [0.0, 0.85, 1.4, 1.65]
        )
        assert all(r["exact_match"] for r in rows)


class TestSlCommand:
    def test_convergence_table(self, capsys):
        code, out = run_cli(capsys, "sl", "--lambda", "0.3", "--format", "json")
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["levels"] == 4
        assert rec["max_abs_error"] < 1e-6
        assert rec["eigenvalues"] == pytest.approx([0.5, 1.35, 1.9, 2.15],
                                                   abs=1e-6)

    def test_error_is_the_verify_metric(self, capsys):
        # one comparison serves the table and the check
        from lambda_osc.verification import check_sl_crossval

        _, out = run_cli(capsys, "sl", "--lambda", "0.3", "--format", "json")
        (rec,) = json.loads(out)
        (check,) = [r for r in check_sl_crossval(lams=(0.3,))
                    if r.check == "sl_eigenvalues"]
        assert rec["max_abs_error"] == check.metric
        assert rec["levels"] == check.parameters["levels"]

    @pytest.mark.parametrize("argv, message", [
        (["--k", "0"], "k = 0: at least one level must be requested"),
        (["--lambda", "0", "--k", "0"],
         "k = 0: at least one level must be requested"),
        (["--lambda", "0.3", "--k", "6"],
         "k = 6: only 4 levels are bound at deformation 0.3"),
    ])
    def test_levels_outside_the_bound_range_refused(self, argv, message,
                                                    capsys):
        assert main(["sl", *argv, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestGramCommand:
    @pytest.mark.parametrize("lam, tol", [("0.1", "1e-9"), ("-0.3", "1e-8"),
                                          ("0.3", "1e-6")])
    def test_offdiagonal_is_the_verify_metric(self, lam, tol, capsys):
        # gram prints the metric that verify --gram --tol bounds; the
        # bound does not change the overlaps, which are exact rules
        _, out = run_cli(capsys, "gram", "--lambda", lam, "--format", "json")
        (rec,) = json.loads(out)
        _, out = run_cli(capsys, "verify", "--gram", "--lambda", lam, "--tol",
                         tol, "--quiet")
        (check,) = json.loads(out)
        assert rec["max_offdiagonal"] == check["metric"]
        assert rec["size"] == check["parameters"]["size"]

    def test_tiny_negative_deformation_prints_the_matrix(self, capsys):
        # the ground state is a Gaussian of width ~1e-3 in the wall angle
        code, out = run_cli(capsys, "gram", "--lambda", "-1e-6", "--format",
                            "json")
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["size"] == 9
        assert rec["max_offdiagonal"] <= 1e-14
        assert [row[i] for i, row in enumerate(rec["matrix"])] == [1.0] * 9

    def test_negative_index_bound_refused(self, capsys):
        assert main(["gram", "--mmax", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: index must be nonnegative\n"


class TestZeroTolerance:
    # --tol 0 is passed on (not replaced by the default) and refused
    @pytest.mark.parametrize("argv", [["sl", "--lambda", "0.3", "--tol", "0"]])
    def test_refused(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "attainable" in err


class TestUnreadFlags:
    # nothing reads a seed, and verify always writes JSON
    @pytest.mark.parametrize("command", ["spectrum", "potential", "polys",
                                         "wavefn", "gram", "sl", "ladder",
                                         "classical", "verify"])
    def test_seed_refused(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_format_refused(self, fmt, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--spectrum", "--format", fmt])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestFlagsTheRunDoesNotRead:
    # one rule: a flag given but not read by this run is refused before
    # anything is written, not dropped
    @pytest.mark.parametrize("argv, command, flag", [
        (["potential", "--lambda", "-1", "--xmax", "0.2"], "potential",
         "--xmax"),
        # two periods per probe: the refusal follows the probes' work
        (["classical", "--probe", "--periods", "2", "--sample-every", "7"],
         "classical", "--sample-every"),
        (["spectrum", "--curve-points", "3"], "spectrum", "--curve-points"),
        (["verify", "--poly", "--tol", "1e-3"], "verify", "--tol"),
        (["verify", "--poly", "--lambda", "0.2"], "verify", "--lambda"),
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_refused(self, argv, command, flag, to_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + (["--out", str(out)] if to_file else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: this {command} run does not read {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # read at the positive deformation
        ["potential", "--lambda", "-1", "--lambda", "1", "--xmax", "2"],
        ["polys", "--quiet"],  # --format, --out and --quiet are always read
    ])
    def test_read_somewhere_in_the_run(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and "error" not in captured.err

    def test_read_where_a_mode_takes_it(self, capsys):
        # these default to None; their defaults are set where they are read
        assert main(["potential", "--lambda", "1", "--xmax", "2", "--points",
                     "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1:4] == [
            "1.0,sample,-2.0,0.4", "1.0,sample,0.0,0.0", "1.0,sample,2.0,0.4"]
        assert main(["spectrum", "--figure3", "--curve-points", "3"]) == 0
        curves = [r for r in capsys.readouterr().out.splitlines()
                  if ",curve," in r]
        assert len(curves) == 3 * 2  # at each of the two deformations
        assert main(["classical", "--periods", "1", "--sample-every", "5000",
                     "--steps-per-period", "10000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3

    def test_verify_deformations_with_every_group(self, monkeypatch, capsys):
        # sl and gram run, so --lambda and --tol are read
        from lambda_osc import verification

        calls = []
        monkeypatch.setattr(verification, "run_checks",
                            lambda *a, **kw: calls.append((a, kw)) or [])
        assert run_cli(capsys, "verify", "--lambda", "0.2", "--tol", "1e-7",
                       "--quiet") == (0, "[]\n")
        assert calls == [(([],), {"lams": [0.2], "tol": 1e-7})]


class TestTolFlag:
    # only the commands that run a tolerance-controlled oracle take --tol;
    # gram's overlaps are exact rules, so it has none to set
    @pytest.mark.parametrize("command", ["spectrum", "potential", "polys",
                                         "wavefn", "gram", "ladder",
                                         "classical"])
    def test_refused_where_unread(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestOneDeformation:
    # commands that sample one deformation refuse a second, not drop it
    @pytest.mark.parametrize("argv, where, flag", [
        (["polys", "--lambda", "1/5", "--lambda", "1/3"], "polys", "--lambda"),
        (["wavefn", "--lambda", "0.3", "--lambda", "0.4"], "wavefn",
         "--lambda"),
        (["ladder", "--lambda", "3/10", "--lambda", "1/10"], "ladder",
         "--lambda"),
        (["classical", "--lambda", "0.5", "--lambda", "-0.5"],
         "classical without --probe", "--lambda"),
        (["classical", "--amplitude", "1.0", "--amplitude", "0.5"],
         "classical without --probe", "--amplitude"),
    ])
    def test_second_value_refused(self, argv, where, flag, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where} takes one {flag}, got 2\n"


class TestClassicalCommand:
    def test_trajectory_csv(self, capsys):
        _, out = run_cli(capsys, "classical", "--lambda", "0.5", "--periods",
                         "1", "--sample-every", "1000")
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,v,E"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.0, pytest.approx(1.0 / 3.0)]

    def test_probe_report(self, capsys):
        _, out = run_cli(capsys, "classical", "--probe", "--lambda", "0.5",
                         "--amplitude", "1.0", "--periods", "5", "--format",
                         "json")
        (rec,) = json.loads(out)
        assert rec["rel_period_error"] < 1e-4

    def test_probe_table_is_the_pooled_check(self, monkeypatch, capsys):
        # at its defaults --probe runs the check's eight probes, on the
        # check's worker pool
        from lambda_osc.verification import check_classical

        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(2)))
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        code, out = run_cli(capsys, "classical", "--probe", "--periods", "3",
                            "--format", "json")
        assert code == 0
        assert len(forks) == 2
        rows = json.loads(out)
        assert len(rows) == 8
        records = check_classical(n_periods=3)
        for row, period, drift in zip(rows, records[::2], records[1::2]):
            assert period.parameters == drift.parameters == {
                "lambda": row["lambda"], "amplitude": row["amplitude"]}
            assert row["rel_period_error"] == period.metric
            assert row["max_rel_energy_drift"] == drift.metric

    @pytest.mark.parametrize("probe", [[], ["--probe"]])
    def test_zero_steps_per_period_refused(self, probe, capsys):
        assert main(["classical", *probe, "--steps-per-period", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: steps_per_period must be positive\n"

    def test_negative_periods_refused(self, capsys):
        assert main(["classical", "--periods", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: total_time -")
        assert captured.err.endswith(" must be nonnegative\n")

    def test_escaping_trajectory_is_an_error(self, capsys):
        # 10^4 steps per period do not hold the orbit at A = 10^4: it runs
        # off in the chart until a sample leaves float range
        assert main(["classical", "--amplitude", "1e4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trajectory left float range")
        assert captured.err.endswith(": take more steps per period\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("probe", [[], ["--probe"]])
    def test_zero_alpha_refused(self, probe, capsys):
        assert main(["classical", *probe, "--alpha", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: alpha 0.0 must be positive\n"
