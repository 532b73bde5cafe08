"""Cross-validation checks wired to reference data.

Every check returns records {check, parameters, metric, threshold, pass}
so the command-line ``verify`` subcommand and the acceptance test suite
share one implementation.  Exact checks report a mismatch count against
a zero threshold; numeric checks report the worst deviation against the
stated tolerance.

The reference polynomial tables are built from literal coefficients (the
published constants k_i and g_i with their bracket polynomials), not
from any construction route, so they are independent oracles for all
three routes.

The comparisons that the table commands print too (``sl_comparison``,
``gram_comparison``, ``ladder_chain``, ``ladder_ratios``,
``period_probes``) live here once; the acceptance parameters and the
group names come from ``params``.  The classical period probes are
independent trajectories, so ``period_probes`` fans them out over the
CPUs this process may use, in forked worker processes.  Each worker runs
the same stepper on the same inputs and the probes are collected in
submission order, so the results are the same as from one process, bit
for bit.

Importing this module loads no numpy: the checks that need numpy, or the
finite-difference oracle, import them when they run, so a ``verify``
subset loads only what its groups use.
"""

import functools
import math
import os
from collections import namedtuple
from fractions import Fraction

from . import classical, factorization, params
from .exact import LamPoly
from .hermite import (
    generating_coeffs,
    proportionality,
    rodrigues,
    series_solution,
)
from .params import PhysicalParams
from .polynomials import GENERIC, LadderFunction, LambdaPoly
from .spectrum import bound_count, energies, energy, ladder_energies
from .wavefunctions import (
    eigen_equation_residual,
    gram_matrix,
    wavefunction,
)


class CheckResult(namedtuple("CheckResult",
                             "check parameters metric threshold passed")):
    """One record: the check's name, its parameters, and the metric
    against its threshold.  ``_record`` builds every one, so no field
    has a default (a default dict would be one dict shared by all)."""

    __slots__ = ()

    def to_dict(self):
        """The record's fields as a new dict, with "pass" for passed."""
        d = self._asdict()
        d["pass"] = d.pop("passed")
        return d


def _record(check, parameters, metric, threshold):
    return CheckResult(
        check=check,
        parameters=parameters,
        metric=float(metric),
        threshold=float(threshold),
        passed=bool(metric <= threshold),
    )


# -- reference tables ---------------------------------------------------------
#
# Bracket polynomials shared by the two published normalizations, with
# multipliers k_i (derivative route) and 2^ceil(i/2) g_i (generating
# route).  Coefficients are written as polynomials in the deformation
# parameter; L(c0, c1, ...) abbreviates the exact polynomial type.


def _L(*cs):
    return LamPoly(cs)


# per index: list of (power of y, coefficient LamPoly) for the bracket
_BRACKETS = {
    0: [(0, _L(1))],
    1: [(1, _L(1))],
    2: [(0, _L(-1)), (2, _L(2, -2))],
    3: [(1, _L(-3)), (3, _L(2, -4))],
    4: [(0, _L(3)), (2, _L(-12, 24)), (4, _L(4, -20, 24))],
    5: [(1, _L(15)), (3, _L(-20, 60)), (5, _L(4, -28, 48))],
    6: [
        (0, _L(-15)),
        (2, _L(90, -270)),
        (4, _L(-60, 420, -720)),
        (6, _L(8, -96, 376, -480)),
    ],
}

# multiplicative constants of the derivative-route table
_K_CONSTANTS = {
    0: _L(1),
    1: _L(2, -1),
    2: _L(2, -3),
    3: _L(2, -3) * _L(2, -5),
    4: _L(2, -5) * _L(2, -7),
    5: _L(2, -5) * _L(2, -7) * _L(2, -9),
    6: _L(2, -7) * _L(2, -9) * _L(2, -11),
}

# generating-route prefactors: 2^ceil(n/2) * g_n
_G_CONSTANTS = {
    0: _L(1),
    1: _L(1),
    2: _L(1),
    3: _L(1, -1),
    4: _L(1, -1),
    5: _L(1, -1) * _L(1, -2),
    6: _L(1, -1) * _L(1, -2),
}
_G_POWERS = {0: 1, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8}


def _table_poly(n: int, prefactor: LamPoly, lam) -> LambdaPoly:
    """Assemble prefactor * bracket as an exact polynomial."""
    coeffs = [LamPoly.ZERO] * (n + 1)
    for power, c in _BRACKETS[n]:
        coeffs[power] = prefactor * c
    generic = LambdaPoly(coeffs, lam=GENERIC)
    if lam is GENERIC:
        return generic
    return generic.substitute_lambda(Fraction(lam))


def reference_rodrigues_table(lam) -> list[LambdaPoly]:
    """Published derivative-route polynomials k_n * [bracket], n = 0..6."""
    return [_table_poly(n, _K_CONSTANTS[n], lam) for n in range(7)]


def reference_generating_table(lam=GENERIC) -> list[LambdaPoly]:
    """Published generating-route polynomials 2^ceil(n/2) g_n * [bracket]."""
    return [
        _table_poly(n, _G_CONSTANTS[n] * _G_POWERS[n], lam) for n in range(7)
    ]


# -- checks -------------------------------------------------------------------


def check_polynomial_tables() -> list[CheckResult]:
    """Exact reproduction of the published tables by both routes."""
    out = []
    gen = generating_coeffs(6)
    ref = reference_generating_table()
    mism = sum(
        1 for n in range(7) if gen[n].coeffs != ref[n].coeffs
    )
    out.append(_record("generating_table", {"mode": "generic"}, mism, 0))
    for lam in (Fraction(1, 5), Fraction(-1, 5), Fraction(1, 3)):
        ref_r = reference_rodrigues_table(lam)
        mism = sum(
            1
            for n in range(7)
            if rodrigues(n, lam).coeffs != ref_r[n].coeffs
        )
        out.append(
            _record("rodrigues_table", {"lambda": str(lam)}, mism, 0)
        )
    return out


def check_route_equivalence() -> list[CheckResult]:
    """All three routes pairwise proportional with a nonzero scalar."""
    out = []
    n_max = 12
    for lam in (Fraction(1, 10), Fraction(-1, 10), Fraction(3, 10),
                Fraction(-3, 10), Fraction(1, 7)):
        gen = generating_coeffs(n_max, lam)
        bad = 0
        for n in range(n_max + 1):
            r = rodrigues(n, lam)
            s = series_solution(n, lam)
            c1 = proportionality(r, gen[n])
            c2 = proportionality(s, gen[n])
            if c1 is None or c2 is None or c1 == 0 or c2 == 0:
                bad += 1
        out.append(
            _record(
                "route_equivalence",
                {"lambda": str(lam), "n_max": n_max},
                bad,
                0,
            )
        )
    return out


# published bound levels at the spectrum's default deformations
SPECTRUM_REFERENCE = dict(zip(params.SPECTRUM_LAMBDAS, (
    [0.5, 1.1], [0.5, 1.3, 1.7], [0.5, 1.35, 1.90, 2.15]), strict=True))


def check_spectrum_values() -> list[CheckResult]:
    """Closed-form energies against the published bound-level values."""
    out = []
    for lam, ref in SPECTRUM_REFERENCE.items():
        table = energies(lam, len(ref) - 1)
        dev = max(
            abs(lv.e - r) for lv, r in zip(table.levels, ref)
        )
        unbound = [lv for lv in table.levels if not lv.bound]
        metric = dev if not unbound else math.inf
        out.append(
            _record("spectrum_values", {"lambda": lam}, metric, 1e-12)
        )
    return out


_BOUND_COUNT_REFERENCE = [
    (1.0, 1),
    (1.5, 1),
    (0.8, 2),
    (0.5, 2),
    (0.45, 3),
    (Fraction(1, 3), 3),
    (0.3, 4),
    (0.25, 4),
    (0.15, 7),
]


def check_bound_counts() -> list[CheckResult]:
    mism = sum(1 for lam, n in _BOUND_COUNT_REFERENCE if bound_count(lam) != n)
    return [_record("bound_counts", {}, mism, 0)]


def sl_comparison(lam: float, k: int | None, tol: float):
    """The lowest k levels (None: every bound one, at most 7) refined to
    ``tol``, against the closed form: (k, eigenvalues, refinement levels,
    closed-form energies, largest absolute deviation)."""
    from . import sturm_liouville

    if k is None:
        k = params.classify(lam).top_index(6) + 1
    vals, levels = sturm_liouville.refine(lam, k, tol=tol)
    exact = [float(energy(lam, m)) for m in range(k)]
    dev = max(abs(v - e) for v, e in zip(vals, exact))
    return k, vals, levels, exact, dev


def check_sl_crossval(tol: float = params.SL_TOL,
                      lams=params.SL_LAMBDAS) -> list[CheckResult]:
    """Refined finite-difference eigenvalues against the closed form."""
    from . import sturm_liouville

    out = []
    for lam in lams:
        k, *_, dev = sl_comparison(lam, None, tol)
        out.append(
            _record("sl_eigenvalues", {"lambda": lam, "levels": k}, dev, tol)
        )
    order = sturm_liouville.convergence_order(0.3, 0)
    out.append(
        _record(
            "sl_convergence_order",
            {"lambda": 0.3, "m": 0, "window": [1.8, 2.2]},
            abs(order - 2.0),
            0.2,
        )
    )
    return out


def gram_comparison(lam: float, max_index: int):
    """The normalized Gram matrix of the bound functions up to
    ``max_index`` and its largest |entry| off the diagonal (the diagonal
    is exactly one), the metric ``check_gram`` bounds: (matrix, largest
    off-diagonal)."""
    import numpy as np

    g = gram_matrix(lam, max_index=max_index)
    return g, float(np.max(np.abs(g - np.eye(g.shape[0]))))


def check_gram(tol: float = params.GRAM_TOL,
               lams=params.GRAM_LAMBDAS) -> list[CheckResult]:
    """Normalized orthogonality of all bound pairs up to GRAM_MAX_INDEX."""
    out = []
    for lam in lams:
        g, dev = gram_comparison(lam, params.GRAM_MAX_INDEX)
        out.append(
            _record("gram_offdiagonal", {"lambda": lam, "size": g.shape[0]},
                    dev, tol)
        )
    return out


def ladder_ratios(lam: Fraction, n_max: int) -> list:
    """``build_state(n, lam)`` over the generating-route h_n, n = 0..n_max
    (None where they are not proportional)."""
    gen = generating_coeffs(n_max, lam)
    return [
        proportionality(factorization.build_state(n, lam).poly, gen[n])
        for n in range(n_max + 1)
    ]


def ladder_chain(lam: Fraction, n_max: int) -> list[tuple]:
    """(chain energy, closed-form energy, chain + 1/2 == closed form) for
    n = 0..n_max, all exact."""
    p = PhysicalParams(m=Fraction(1), alpha=Fraction(1), hbar=Fraction(1),
                       lam=lam)
    closed = [energy(lam, n) for n in range(n_max + 1)]
    chain = ladder_energies(p, n_max)
    return [(c, e, c + Fraction(1, 2) == e) for c, e in zip(chain, closed)]


def check_ladder() -> list[CheckResult]:
    """Exact rational-mode ladder checks."""
    out = []
    lam, n_max = Fraction(1, 10), 8
    bad = sum(not c for c in ladder_ratios(lam, n_max))
    out.append(
        _record("ladder_proportionality", {"lambda": str(lam), "n_max": n_max},
                bad, 0)
    )

    g0 = factorization.ground_function(lam, 1)
    ann = factorization.apply(factorization.lowering(1), g0)
    out.append(
        _record("ground_state_annihilation", {"lambda": str(lam)},
                0 if ann.is_zero() else 1, 0)
    )

    bad = sum(
        not match
        for lam_r in (Fraction(3, 10), Fraction(-3, 10), Fraction(1, 10),
                      Fraction(-1, 10), Fraction(1, 20))
        for _chain, _closed, match in ladder_chain(lam_r, 20)
    )
    out.append(_record("ladder_energies_exact", {"n_max": 20}, bad, 0))

    battery = _operator_battery(Fraction(1, 10))
    bad = sum(
        1
        for f in battery
        if not factorization.shape_invariance_residual(f, 1).is_zero()
    )
    out.append(
        _record("shape_invariance", {"battery": len(battery)}, bad, 0)
    )
    bad = sum(
        1
        for f in battery
        if not (
            factorization.hamiltonian_chain(f, 1)
            - factorization.hamiltonian_diff_form(f, 1)
        ).is_zero()
    )
    out.append(
        _record("factorization_identity", {"battery": len(battery)}, bad, 0)
    )
    return out


def _operator_battery(lam: Fraction) -> list[LadderFunction]:
    """Ten assorted family members for operator-identity checks."""
    polys = [
        LambdaPoly.one(lam),
        LambdaPoly((0, 1), lam=lam),
        LambdaPoly((1, 0, 1), lam=lam),
        LambdaPoly((0, 0, 0, 1), lam=lam),
        LambdaPoly((2, -1, 0, 3), lam=lam),
    ]
    exponents = [Fraction(0), Fraction(1, 2), Fraction(-3, 2),
                 -1 / (2 * lam), Fraction(2)]
    # the second five shift the exponents by one, so all ten differ
    return [LadderFunction(lam, exponents[(i + i // 5) % 5], polys[i % 5])
            for i in range(10)]


def check_commutator() -> list[CheckResult]:
    """Closed-form commutator against operator composition at samples."""
    import numpy as np

    out, tol = [], 1e-10
    for lam in (0.5, -0.5):
        lam_r = Fraction(lam)
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=lam_r)
        xs = np.linspace(-1.2, 1.2, 20)
        g = LadderFunction(lam_r, Fraction(1), LambdaPoly((1, 0, 1), lam=lam_r))
        dev = max(
            abs(
                factorization.commutator_closed_form(x, p)
                - factorization.commutator_via_operators(x, p, g)
            )
            for x in xs
        )
        out.append(_record("commutator", {"lambda": lam}, dev, tol))
    p0 = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.0)
    dev = abs(factorization.commutator_closed_form(3.7, p0) - 1.0)
    out.append(_record("commutator", {"lambda": 0.0}, dev, tol))
    return out


def check_eigen_equation() -> list[CheckResult]:
    """Every bound eigenfunction (up to index 8 at lam < 0) satisfies its
    equation pointwise, inside the walls at lam < 0."""
    import numpy as np

    out = []
    for lam in (Fraction(3, 10), Fraction(-3, 10), Fraction(1, 10),
                Fraction(-1, 10)):
        dp = params.classify(lam)
        top = 8 if dp.n_max is None else dp.n_max
        edge = 4.0 if dp.half_width is None else 0.98 * dp.half_width
        ys = np.linspace(-edge, edge, 50)
        dev = max(
            eigen_equation_residual(m, lam, ys) for m in range(top + 1)
        )
        out.append(
            _record("eigen_equation_residual",
                    {"lambda": str(lam), "m_top": top}, dev, 1e-9)
        )
    return out


def _probe(case, alpha, n_periods, steps_per_period):
    """One period probe, the law's period and the relative error against
    it; module level so a worker process can unpickle it."""
    lam, amp = case
    probe = classical.measure_period(alpha, lam, amp, n_periods=n_periods,
                                     steps_per_period=steps_per_period)
    law = classical.OrbitParams.from_amplitude(amp, alpha, lam).period
    return probe, law, abs(probe.period - law) / law


def period_probes(lams, amplitudes, alpha: float, n_periods: int,
                  steps_per_period: int) -> list[tuple]:
    """(lambda, amplitude, PeriodProbe, law period, relative period
    error) for every lambda by every amplitude, in that order, from forked
    workers, one per usable CPU."""
    cases = [(lam, amp) for lam in lams for amp in amplitudes]
    run = functools.partial(_probe, alpha=alpha, n_periods=n_periods,
                            steps_per_period=steps_per_period)
    workers = min(len(os.sched_getaffinity(0)), len(cases))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: spawn would re-import numpy in each worker, and
        # a worker runs only the pure-Python stepper, never BLAS, so the
        # OpenBLAS threads alive at the fork hold nothing it needs
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            probes = list(pool.map(run, cases))
    else:
        probes = list(map(run, cases))
    return [case + probe for case, probe in zip(cases, probes)]


def check_classical(lams=params.CLASSICAL_LAMBDAS,
                    amplitudes=params.CLASSICAL_AMPLITUDES,
                    n_periods: int = params.CLASSICAL_PERIODS,
                    steps_per_period: int = params.CLASSICAL_STEPS_PER_PERIOD,
                    ) -> list[CheckResult]:
    """Measured period against the amplitude-frequency law, plus drift."""
    out = []
    for lam, amp, probe, _law, rel in period_probes(
            lams, amplitudes, 1.0, n_periods, steps_per_period):
        out.append(
            _record("classical_period", {"lambda": lam, "amplitude": amp},
                    rel, 1e-4)
        )
        out.append(
            _record("classical_energy_drift",
                    {"lambda": lam, "amplitude": amp},
                    probe.max_rel_energy_drift, 1e-6)
        )
    return out


def check_small_deformation_continuity() -> list[CheckResult]:
    """Values at deformation +-1e-6 stay near the classical oscillator,
    for the indices 0..4."""
    import numpy as np

    out = []
    m_top = 4
    classical_polys = generating_coeffs(m_top, Fraction(0))
    ys = np.linspace(-3.0, 3.0, 25)
    for lam in (1e-6, -1e-6):
        dev = 0.0
        polys = generating_coeffs(m_top, Fraction(1 if lam > 0 else -1, 10**6))
        for m in range(m_top + 1):
            # coefficients
            for k in range(m + 1):
                ref = float(classical_polys[m].coefficient(k))
                got = float(polys[m].coefficient(k))
                if ref != 0:
                    dev = max(dev, abs(got - ref) / abs(ref))
            # energies
            e0 = float(energy(0, m))
            dev = max(dev, abs(float(energy(lam, m)) - e0) / e0)
            # wavefunction values
            w = wavefunction(m, lam)
            w0 = wavefunction(m, 0.0)
            v, v0 = w(ys), w0(ys)
            scale = np.max(np.abs(v0))
            dev = max(dev, float(np.max(np.abs(v - v0)) / scale))
        out.append(
            _record("small_deformation_continuity", {"lambda": lam}, dev,
                    1e-4)
        )
    return out


ALL_CHECKS = dict(zip(params.VERIFY_GROUPS, (
    (check_polynomial_tables, check_route_equivalence),
    (check_spectrum_values, check_bound_counts),
    (check_sl_crossval,),
    (check_gram,),
    (check_ladder,),
    (check_commutator,),
    (check_eigen_equation,),
    (check_classical,),
    (check_small_deformation_continuity,),
), strict=True))


def run_checks(groups=None, lams=None, tol=None) -> list[CheckResult]:
    """Run the named groups (all of them by default), in a fixed order.

    ``lams`` (deformation values) and ``tol`` override the defaults of the
    checks that take them, the SL cross-validation and the Gram check;
    ``None`` keeps each default.
    """
    overrides = {k: v for k, v in (("lams", lams), ("tol", tol))
                 if v is not None}
    results = []
    for name, fns in ALL_CHECKS.items():
        if groups and name not in groups:
            continue
        kwargs = overrides if name in params.OVERRIDABLE_GROUPS else {}
        for fn in fns:
            results.extend(fn(**kwargs))
    return results
