import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lambda_osc import factorization as fac
from lambda_osc.exact import horner
from lambda_osc.hermite import generating_coeffs, proportionality, rodrigues
from lambda_osc.params import PhysicalParams, classify
from lambda_osc.polynomials import DERIVATIVE, LadderFunction, LambdaPoly
from lambda_osc.spectrum import chain_parameter, chain_remainder, energy
from lambda_osc.verification import _operator_battery
from lambda_osc.wavefunctions import WaveFunction, envelope


def family(lam, s, coeffs):
    return LadderFunction(Fraction(lam), Fraction(s),
                          LambdaPoly(coeffs, lam=Fraction(lam)))


class TestLadderAction:
    def test_ground_state_annihilated_exactly(self):
        for lam in (Fraction(3, 10), Fraction(-1, 4), Fraction(1, 7)):
            g0 = fac.ground_function(lam, 1)
            assert fac.apply(fac.lowering(1), g0).is_zero()

    def test_first_rung_proportional_to_odd_monomial(self):
        # raising the shifted ground state produces (2 - lam) y * envelope
        lam = Fraction(3, 10)
        psi0_shifted = fac.ground_function(lam, fac.chain_b(1, lam))
        psi1 = fac.apply(fac.raising(1), psi0_shifted)
        assert psi1.s == -1 / (2 * lam)
        assert psi1.poly.coeffs == (Fraction(0), 2 - lam)

    def test_classical_limit_creation(self):
        # at zero deformation the raising operator sends the Gaussian to
        # 2 y times the Gaussian
        g = LadderFunction(0, 0, LambdaPoly.one(Fraction(0)))
        out = fac.apply(fac.raising(1), g)
        assert out.poly.coeffs == (Fraction(0), Fraction(2))
        assert out(0.7) == pytest.approx(1.4 * math.exp(-0.245), rel=1e-14)

    def test_small_deformation_tends_to_classical(self):
        lam = Fraction(1, 10**9)
        g0 = fac.ground_function(lam, 1)
        out = fac.apply(fac.raising(1), g0)
        ys = np.linspace(-2, 2, 9)
        classical = 2 * ys * np.exp(-0.5 * ys * ys)
        assert np.allclose(out(ys), classical, rtol=1e-6)


CANONICAL_LAMS = ["1/5", "3/10", "-1/10", "-1/4", "-9/16", "-9/10", "0"]
# r with z = (1 - r*y)(1 + r*y): z splits over the rationals
SPLIT_ROOT = {Fraction(-1, 4): Fraction(1, 2), Fraction(-9, 16): Fraction(3, 4)}


def _canonical_inputs(lam):
    """Family members with assorted exponents, including one factor of a
    split z in Q and the exponents where the operators' alpha vanishes."""
    polys = [(1,), (0, 1), (1, 0, 1), (0, 0, 0, 1), (2, -1, 0, 3)]
    if lam in SPLIT_ROOT:
        r = SPLIT_ROOT[lam]
        polys += [(1, -r), (2, 1 - 2 * r, -r)]  # 1 - r*y, (1 - r*y)(2 + y)
    exponents = [Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(2)]
    if lam:
        exponents += [-1 / (2 * lam), -Fraction(3, 2) / (2 * lam)]
    return [LadderFunction(lam, s, LambdaPoly(q, lam=lam))
            for q in polys for s in exponents]


class TestCanonicalFirstOrder:
    """Results of the first-order operators equal their own rebuild through
    the constructor, which divides out every z factor."""

    @pytest.mark.parametrize("lam", CANONICAL_LAMS)
    def test_results_are_canonical(self, lam):
        lam = Fraction(lam)
        ops = [fac.lowering(b) for b in (1, Fraction(3, 2), 1 - 3 * lam)]
        ops += [fac.raising(b) for b in (1, Fraction(3, 2), 1 - 3 * lam)]
        for f in _canonical_inputs(lam):
            results = [f.differentiate()] + [fac.apply(op, f) for op in ops]
            for r in results:
                g = LadderFunction(r.lam, r.s, r.poly)
                assert (r.s, r.poly) == (g.s, g.poly)

    @pytest.mark.parametrize("lam", CANONICAL_LAMS)
    def test_lowering_the_ground_state_is_exactly_zero(self, lam):
        lam = Fraction(lam)
        # the Gaussian is the ground state at b = 1 only
        for b in (1, Fraction(3, 2), 1 - 3 * lam) if lam else (1,):
            r = fac.apply(fac.lowering(b), fac.ground_function(lam, b))
            assert r.poly.is_zero() and r.s == 0

    @pytest.mark.parametrize("lam", [l for l in CANONICAL_LAMS if l != "0"])
    def test_derivative_that_is_z_canonicalizes(self, lam):
        # alpha = 2*lam*s = 0 at s = 0; (y + lam*y^3/3)' = z
        lam = Fraction(lam)
        f = LadderFunction(lam, 0, LambdaPoly((0, 1, 0, lam / 3), lam=lam))
        r = f.differentiate()
        assert (r.s, r.poly) == (1, LambdaPoly.one(lam))


# lam = 2/(2m - 1): at lam > 0 the Rodrigues chain reaches s = 0, where
# alpha = 2*lam*s vanishes and z divides the step's result
ALPHA_ZERO_LAMS = [Fraction(2 * sign, 2 * m - 1)
                   for m in range(1, 12) for sign in (1, -1)]


class TestFusedChains:
    """rodrigues and build_state hand their whole chain to one integer
    pass; it equals the chain of public one-step operators, each of which
    canonicalizes its own result."""

    @pytest.mark.parametrize("lam", ALPHA_ZERO_LAMS, ids=str)
    def test_rodrigues_equals_stepwise_derivatives(self, lam):
        shift = 1 / lam + Fraction(1, 2)
        alpha_zero_steps = 0
        for n in range(25):
            start = LadderFunction(lam, n - shift, LambdaPoly.one(lam))
            f = start
            for _ in range(n):
                alpha_zero_steps += f.s == 0 and not f.is_zero()
                f = f.differentiate()
            fused = start.first_order([DERIVATIVE] * n)
            rebuilt = LadderFunction(lam, fused.s, fused.poly)
            assert (fused.s, fused.poly) == (rebuilt.s, rebuilt.poly)
            assert (fused.s, fused.poly) == (f.s, f.poly)
            f = f.times_z_power(shift).scale((-1) ** n)
            poly = f.poly
            for _ in range(int(f.s)):
                poly = poly.times_z()
            assert rodrigues(n, lam).coeffs == poly.coeffs
        assert (alpha_zero_steps > 0) == (lam > 0)

    @pytest.mark.parametrize("lam", ALPHA_ZERO_LAMS, ids=str)
    def test_build_state_equals_stepwise_raising(self, lam):
        n_max = classify(lam).n_max
        for n in range(1 + (24 if n_max is None else min(24, n_max))):
            f = fac.ground_function(lam, fac.chain_b(n, lam))
            for k in range(n - 1, -1, -1):
                f = fac.apply(fac.raising(fac.chain_b(k, lam)), f)
            assert fac.build_state(n, lam).poly.coeffs == f.poly.coeffs


class TestGaussianRules:
    """At lambda = 0 the operators act on Q exp(-y^2/2); Q = 2 - y + 3y^3,
    Q' = -1 + 9y^2, expanded by hand."""

    zero = Fraction(0)
    f = LadderFunction(0, 0, LambdaPoly((2, -1, 0, 3), lam=zero))

    def _poly(self, *coeffs):
        return LambdaPoly(coeffs, lam=self.zero)

    def test_differentiate(self):
        # Q' - yQ
        assert self.f.differentiate().poly == self._poly(-1, -2, 10, 0, -3)

    @pytest.mark.parametrize("b, expect", [
        (1, (-1, 0, 9)),
        (Fraction(3, 2), (-1, 1, Fraction(17, 2), 0, Fraction(3, 2))),
    ])
    def test_lower(self, b, expect):
        # (b - 1) yQ + Q'
        out = fac.apply(fac.lowering(b), self.f)
        assert out.poly == self._poly(*expect) and out.s == 0

    @pytest.mark.parametrize("b, expect", [
        (1, (1, 4, -11, 0, 6)),
        (Fraction(3, 2), (1, 5, Fraction(-23, 2), 0, Fraction(15, 2))),
    ])
    def test_raise(self, b, expect):
        # (b + 1) yQ - Q'
        out = fac.apply(fac.raising(b), self.f)
        assert out.poly == self._poly(*expect) and out.s == 0


class TestBuildState:
    def test_returns_the_family_member_without_the_float_layer(self):
        # a fresh interpreter, so no other test has loaded the modules yet
        src = Path(fac.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys\n"
                 "from fractions import Fraction\n"
                 "from lambda_osc.factorization import build_state\n"
                 "from lambda_osc.polynomials import LadderFunction\n"
                 "st = build_state(5, Fraction(1, 10))\n"
                 "print(isinstance(st, LadderFunction), st.s, *(m for m in "
                 "('lambda_osc.wavefunctions', 'lambda_osc.hermite', 'numpy')"
                 " if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["True", "-5"]

    def test_unbound_index_refused_as_the_constructor_refuses_it(self):
        # one guard, params.DeformationParam.check_index, for both
        lam = Fraction(3, 10)
        with pytest.raises(ValueError) as direct:
            WaveFunction(4, lam)
        with pytest.raises(ValueError) as chained:
            fac.build_state(4, lam)
        assert str(chained.value) == str(direct.value) == (
            "index 4 is not normalizable at deformation 3/10 (cutoff 10/3)")

    @pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(-3, 10)])
    def test_polynomial_equals_derivative_route(self, lam):
        for n in range(9):
            st = fac.build_state(n, lam)
            assert st.poly.coeffs == rodrigues(n, lam).coeffs

    def test_proportional_to_generating_route(self):
        lam = Fraction(3, 10)
        gen = generating_coeffs(3, lam)
        for n in range(4):
            c = proportionality(fac.build_state(n, lam).poly, gen[n])
            assert c is not None and c != 0

    def test_published_quadratic_factor(self):
        st = fac.build_state(2, Fraction(3, 10))
        c = proportionality(
            st.poly,
            LambdaPoly((-1, 0, Fraction(7, 5)), lam=Fraction(3, 10)),
        )
        assert c is not None and c != 0  # proportional to 1.4 y^2 - 1

    def test_cross_route_pointwise_ratio(self):
        lam = Fraction(1, 5)
        st = fac.build_state(3, lam)
        rod = rodrigues(3, lam)
        ys = np.linspace(0.1, 2.0, 20)
        ratios = st.poly(ys) / rod(ys)
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-12 * abs(ratios[0])

    @pytest.mark.parametrize(
        "lam, n",
        [("1/5", 3), ("-3/10", 8), ("1/10", 6), ("0", 4)],
    )
    def test_values_match_exact_polynomial(self, lam, n):
        # a float value is the exact polynomial rounded once times the
        # envelope
        lam = Fraction(lam)
        st = fac.build_state(n, lam)
        wall = classify(lam).half_width
        ys = np.linspace(-0.95 * wall, 0.95 * wall, 41) if wall else (
            np.linspace(-4.0, 4.0, 41)
        )
        exact = np.array([n / d for n, d in horner(
            st.poly.coeffs, map(float.as_integer_ratio, ys.tolist()))])
        expect = exact * envelope(ys, lam)
        assert np.max(np.abs(st(ys) - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_ground_is_envelope_only(self):
        st = fac.build_state(0, Fraction(-1, 2))
        assert st.poly.coeffs == (Fraction(1),)

    def test_unbound_rejected(self):
        with pytest.raises(ValueError):
            fac.build_state(2, Fraction(1, 2))

    def test_zero_deformation_gives_classical(self):
        hermite = generating_coeffs(12, Fraction(0))
        for n in range(13):
            assert fac.build_state(n, Fraction(0)).poly.coeffs == hermite[n].coeffs


class TestOperatorIdentities:
    @pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(-3, 10),
                                     Fraction(3, 10)])
    def test_factorization_identity(self, lam):
        for f in _operator_battery(lam):
            assert (
                fac.hamiltonian_chain(f, 1) - fac.hamiltonian_diff_form(f, 1)
            ).is_zero()

    @pytest.mark.parametrize("b", [1, Fraction(7, 10), Fraction(13, 10)])
    def test_shape_invariance(self, b):
        for f in _operator_battery(Fraction(1, 10)):
            assert fac.shape_invariance_residual(f, b).is_zero()

    def test_battery_members_all_differ(self):
        assert len(set(_operator_battery(Fraction(1, 10)))) == 10

    def test_partner_relation_is_commutator(self):
        for f in _operator_battery(Fraction(-3, 10)):
            assert fac.partner_relation_residual(f, 1).is_zero()

    def test_eigenvalue_relation_exact(self):
        lam = Fraction(1, 10)
        for n in range(6):
            st = fac.build_state(n, lam)
            f = LadderFunction(lam, -1 / (2 * lam), st.poly)
            lhs = fac.hamiltonian_chain(f, 1)
            e_n = energy(lam, n) - Fraction(1, 2)
            assert (lhs - f.scale(e_n)).is_zero()


class TestConjugationIdentity:
    def test_trivial_power(self):
        g = family(Fraction(1, 3), 1, (1,))
        assert fac.conjugation_residual(0, g).is_zero()

    def test_monomial(self):
        lam = Fraction(3, 10)
        y3 = family(lam, 0, (0, 0, 0, 1))
        p = Fraction(1) / (2 * lam)
        assert fac.conjugation_residual(p, y3).is_zero()

    def test_half_power(self):
        g = family(Fraction(1, 3), 1, (1,))
        assert fac.conjugation_residual(Fraction(1, 2), g).is_zero()

    def test_battery(self):
        for i, g in enumerate(_operator_battery(Fraction(-1, 5))):
            assert fac.conjugation_residual(Fraction(i - 3, 4), g).is_zero()

    def test_zero_deformation_rejected(self):
        g = LadderFunction(0, 0, LambdaPoly.one(Fraction(0)))
        with pytest.raises(ValueError):
            fac.conjugation_residual(1, g)


def measure_integral(f, lam, points=1 << 12):
    """The integral of f(y) dy / sqrt(1 + lam y^2) by the trapezoid rule in
    the flattening coordinate u, where the measure is du: y = sin(w u)/w
    between the walls for lam < 0, y = sinh(w u)/w on (-60, 60) for
    lam > 0, w = sqrt(|lam|); the end points, where the integrands here
    vanish, are left out."""
    w = math.sqrt(abs(lam))
    half = math.pi / (2 * w) if lam < 0 else 60.0
    u, h = np.linspace(-half, half, points + 1, retstep=True)
    y = (np.sin if lam < 0 else np.sinh)(w * u[1:-1]) / w
    return float(np.sum(f(y)) * h)


class TestAdjointness:
    @pytest.mark.parametrize("lam", [Fraction(-3, 10), Fraction(1, 4)])
    def test_weak_adjointness_under_the_measure(self, lam):
        # <raise f, g> = <f, lower g> against the invariant measure, on
        # decaying family members (checked weakly, by a trapezoid rule:
        # these products are no polynomial against the measure's weight)
        envelope_s = -1 / (2 * lam)
        pairs = [
            (family(lam, envelope_s, (1,)), family(lam, envelope_s, (0, 1))),
            (family(lam, envelope_s, (1, 0, 2)), family(lam, envelope_s, (0, 3))),
        ]
        for f, g in pairs:
            af = fac.apply(fac.raising(1), f)
            ag = fac.apply(fac.lowering(1), g)
            lhs = measure_integral(lambda y: af(y) * g(y), float(lam))
            rhs = measure_integral(lambda y: f(y) * ag(y), float(lam))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-8 * scale


class TestExplicitConversion:
    def test_float_deformation_rejected_in_exact_paths(self):
        with pytest.raises(TypeError):
            fac.build_state(1, 0.3)
        with pytest.raises(TypeError):
            fac.lowering(0.3)
        with pytest.raises(TypeError):
            rodrigues(2, 0.5)


class TestCommutator:
    def test_origin_value(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.7)
        assert fac.commutator_closed_form(0.0, p) == pytest.approx(1.0)

    def test_zero_coupling_everywhere(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.0)
        for x in (0.0, 1.3, -4.2):
            assert fac.commutator_closed_form(x, p) == 1.0

    def test_published_point(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=1.0)
        assert fac.commutator_closed_form(1.0, p) == pytest.approx(0.5)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-1, 2)])
    def test_operator_composition_agrees(self, lam):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=lam)
        g = family(lam, 1, (1, 0, 1))
        for x in np.linspace(-1.2, 1.2, 20):
            closed = fac.commutator_closed_form(x, p)
            via_ops = fac.commutator_via_operators(x, p, g)
            assert via_ops == pytest.approx(closed, abs=1e-10)

    def test_physical_scale(self):
        p = PhysicalParams(m=2.0, alpha=3.0, hbar=0.5, lam=0.0)
        assert fac.commutator_closed_form(1.0, p) == pytest.approx(1.5)

    def test_operator_composition_refuses_a_float_deformation(self):
        # the exact path takes no binary float, as build_state does not
        with pytest.raises(TypeError):
            fac.commutator_via_operators(0.5, PhysicalParams(lam=0.3))


class TestPartnerPotentials:
    def test_constant_offsets_at_origin(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.4)
        u1, u2 = fac.partner_potentials(p)
        assert u1(0.0) == pytest.approx(-0.5)
        assert u2(0.0) == pytest.approx(0.5)

    def test_zero_coupling_limits(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.0)
        u1, u2 = fac.partner_potentials(p)
        for x in (0.5, 2.0):
            assert u1(x) == pytest.approx(0.5 * x * x - 0.5)
            assert u2(x) == pytest.approx(0.5 * x * x + 0.5)

    def test_superpotential_sum_rule(self):
        # U1 + U2 = m alpha^2 W^2 at every point
        p = PhysicalParams(m=2.0, alpha=1.5, hbar=0.7, lam=0.6)
        u1, u2 = fac.partner_potentials(p)
        for x in np.linspace(-2, 2, 11):
            w = fac.superpotential(x, p)
            assert u1(x) + u2(x) == pytest.approx(2.0 * 1.5**2 * w * w, abs=1e-12)

    def test_bounded_at_infinity_for_positive_coupling(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=2.0)
        u1, u2 = fac.partner_potentials(p)
        w_inf_sq = 1.0 / 2.0
        assert u1(1e8) == pytest.approx(0.5 * (1 + 2) * w_inf_sq - 0.5, rel=1e-6)
        assert math.isfinite(u2(1e8))


class TestShapeChain:
    def test_chain_values(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=Fraction(3, 10))
        alphas = [chain_parameter(p, k) for k in range(4)]
        assert alphas == [1, Fraction(7, 10), Fraction(2, 5), Fraction(1, 10)]
        assert chain_remainder(p, alphas[1]) == Fraction(7, 10) + Fraction(3, 20)

    def test_adimensional_chain_parameter(self):
        assert fac.chain_b(3, Fraction(1, 10)) == Fraction(7, 10)
