"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test drives the shared verification checks and prints a single
PASS/FAIL line (run pytest with -s to see them alongside the dots).
"""

import pytest

from lambda_osc import verification as V


def _report(criterion: str, results) -> None:
    ok = all(r.passed for r in results)
    worst = max((r.metric for r in results), default=0.0)
    print(f"{'PASS' if ok else 'FAIL'} {criterion} "
          f"(checks={len(results)}, worst metric={worst:.3e})")
    for r in results:
        assert r.passed, f"{r.check} {r.parameters}: " \
                         f"metric {r.metric} exceeds {r.threshold}"


def test_criterion_1_polynomial_tables():
    # generating route reproduces the published table (with its prefactor
    # constants) exactly; derivative route reproduces its table with the
    # published multiplicative constants at 1/5, -1/5, 1/3 -- exact
    results = V.check_polynomial_tables()
    _report("criterion 1: polynomial tables exact", results)


def test_criterion_2_spectrum_values():
    # published bound-level energies at 0.8, 0.4, 0.3 to 1e-12
    results = V.check_spectrum_values()
    assert {r.threshold for r in results} == {1e-12}
    _report("criterion 2: closed-form spectrum values", results)


def test_criterion_3_bound_state_counts():
    results = V.check_bound_counts()
    _report("criterion 3: bound-state counts", results)


def test_criterion_4_sturm_liouville_crossval():
    # refined finite-difference eigenvalues within 1e-6 of the closed
    # form for every bound level, and observed convergence order near 2
    results = V.check_sl_crossval(tol=1e-6)
    _report("criterion 4: eigensolver cross-validation", results)


def test_criterion_5_orthogonality():
    # normalized overlaps below 1e-8 for all bound pairs up to index 8
    results = V.check_gram(tol=1e-8)
    _report("criterion 5: orthogonality", results)


def test_criterion_6_ladder_consistency():
    # exact rational mode: state polynomials proportional to the
    # generating family, exact annihilation, chain energies equal to the
    # closed form, shape invariance on a ten-function battery
    results = V.check_ladder()
    _report("criterion 6: ladder consistency", results)


def test_criterion_7_commutator():
    results = V.check_commutator()
    assert {r.threshold for r in results} == {1e-10}
    _report("criterion 7: commutator", results)


def test_criterion_8_eigen_equation_residual():
    results = V.check_eigen_equation()
    assert {r.threshold for r in results} == {1e-9}
    _report("criterion 8: eigen-equation residual", results)


def test_criterion_9_classical_law():
    results = V.check_classical()
    assert {(r.check, r.threshold) for r in results} == {
        ("classical_period", 1e-4), ("classical_energy_drift", 1e-6)}
    _report("criterion 9: classical period law and drift", results)


def test_criterion_10_small_deformation_continuity():
    results = V.check_small_deformation_continuity()
    assert {r.threshold for r in results} == {1e-4}
    _report("criterion 10: small-deformation continuity", results)
