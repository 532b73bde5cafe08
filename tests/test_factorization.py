import math
from fractions import Fraction

import numpy as np
import pytest

from lambda_osc import factorization as fac
from lambda_osc.hermite import generating_coeffs, proportionality, rodrigues
from lambda_osc.params import PhysicalParams
from lambda_osc.polynomials import LadderFunction, LambdaPoly
from lambda_osc.spectrum import energy
from lambda_osc.verification import _operator_battery
from lambda_osc.wavefunctions import envelope


def family(lam, s, coeffs):
    return LadderFunction(Fraction(lam), Fraction(s),
                          LambdaPoly(coeffs, lam=Fraction(lam)))


class TestLadderAction:
    def test_ground_state_annihilated_exactly(self):
        for lam in (Fraction(3, 10), Fraction(-1, 4), Fraction(1, 7)):
            g0 = fac.ground_function(lam, 1)
            assert fac.apply(fac.lowering(lam, 1), g0).is_zero()

    def test_first_rung_proportional_to_odd_monomial(self):
        # raising the shifted ground state produces (2 - lam) y * envelope
        lam = Fraction(3, 10)
        psi0_shifted = fac.ground_function(lam, fac.chain_b(1, lam))
        psi1 = fac.apply(fac.raising(lam, 1), psi0_shifted)
        assert psi1.s == -1 / (2 * lam)
        assert psi1.poly.coeffs == (Fraction(0), 2 - lam)

    def test_classical_limit_creation(self):
        # at zero deformation the raising operator sends the Gaussian to
        # 2 y times the Gaussian
        g = LadderFunction(0, 0, LambdaPoly.one(Fraction(0)))
        out = fac.apply(fac.raising(0, 1), g)
        assert out.poly.coeffs == (Fraction(0), Fraction(2))
        assert out(0.7) == pytest.approx(1.4 * math.exp(-0.245), rel=1e-14)

    def test_small_deformation_tends_to_classical(self):
        lam = Fraction(1, 10**9)
        g0 = fac.ground_function(lam, 1)
        out = fac.apply(fac.raising(lam, 1), g0)
        ys = np.linspace(-2, 2, 9)
        classical = 2 * ys * np.exp(-0.5 * ys * ys)
        assert np.allclose(out(ys), classical, rtol=1e-6)

    def test_mode_mismatch_rejected(self):
        g = family(Fraction(1, 3), 0, (1,))
        with pytest.raises(ValueError):
            fac.apply(fac.lowering(Fraction(1, 4), 1), g)


class TestBuildState:
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
        # float values run the generating-normalization recursion, scaled
        # by the ladder polynomial's leading coefficient over prod a_n
        lam = Fraction(lam)
        st = fac.build_state(n, lam)
        wall = st.half_width
        ys = np.linspace(-0.95 * wall, 0.95 * wall, 41) if wall else (
            np.linspace(-4.0, 4.0, 41)
        )
        exact = np.array([float(st.poly.evaluate_exact(Fraction(y))) for y in ys])
        expect = exact * envelope(ys, lam)
        assert np.max(np.abs(st(ys) - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_ground_is_envelope_only(self):
        st = fac.build_state(0, Fraction(-1, 2))
        assert st.poly.coeffs == (Fraction(1),)

    def test_unbound_rejected(self):
        with pytest.raises(ValueError):
            fac.build_state(2, Fraction(1, 2))

    def test_zero_deformation_gives_classical(self):
        st = fac.build_state(4, Fraction(0))
        assert st.poly.coeffs == generating_coeffs(4, Fraction(0))[4].coeffs


class TestOperatorIdentities:
    @pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(-3, 10)])
    def test_factorization_identity(self, lam):
        for f in _operator_battery(lam):
            assert (
                fac.hamiltonian_chain(f, 1) - fac.hamiltonian_diff_form(f, 1)
            ).is_zero()

    @pytest.mark.parametrize("b", [1, Fraction(7, 10), Fraction(13, 10)])
    def test_shape_invariance(self, b):
        for f in _operator_battery(Fraction(1, 10)):
            assert fac.shape_invariance_residual(f, b).is_zero()

    def test_partner_relation_is_commutator(self):
        for f in _operator_battery(Fraction(-3, 10)):
            assert fac.partner_relation_residual(f, 1).is_zero()

    def test_full_hamiltonian_offsets(self):
        lam = Fraction(3, 10)
        for f in _operator_battery(lam):
            h = fac.hamiltonian_full(f)
            h1 = fac.hamiltonian_chain(f, 1)
            assert (h - h1 - f.scale(Fraction(1, 2))).is_zero()

    def test_eigenvalue_relation_exact(self):
        lam = Fraction(1, 10)
        for n in range(6):
            st = fac.build_state(n, lam)
            f = LadderFunction(lam, -1 / (2 * lam), st.poly)
            lhs = fac.hamiltonian_chain(f, 1)
            e_n = n - Fraction(n * n) * lam / 2
            assert (lhs - f.scale(e_n)).is_zero()
            full = fac.hamiltonian_full(f)
            assert (full - f.scale(energy(lam, n))).is_zero()


class TestConjugationIdentity:
    def test_trivial_power(self):
        g = family(Fraction(1, 3), 1, (1,))
        assert fac.conjugation_check(0, g)

    def test_monomial(self):
        lam = Fraction(3, 10)
        y3 = family(lam, 0, (0, 0, 0, 1))
        p = Fraction(1) / (2 * lam)
        assert fac.conjugation_check(p, y3)

    def test_half_power(self):
        g = family(Fraction(1, 3), 1, (1,))
        assert fac.conjugation_check(Fraction(1, 2), g)

    def test_battery(self):
        for i, g in enumerate(_operator_battery(Fraction(-1, 5))):
            assert fac.conjugation_check(Fraction(i - 3, 4), g)

    def test_zero_deformation_rejected(self):
        g = LadderFunction(0, 0, LambdaPoly.one(Fraction(0)))
        with pytest.raises(ValueError):
            fac.conjugation_check(1, g)


class TestAdjointness:
    @pytest.mark.parametrize("lam", [Fraction(-3, 10), Fraction(1, 4)])
    def test_weak_adjointness_under_the_measure(self, lam):
        # <raise f, g> = <f, lower g> against the invariant measure, on
        # decaying family members (checked weakly, by quadrature)
        from lambda_osc.quadrature import (QuadratureSpec, integrate_measure,
                                           overlap_halfwidth)

        envelope_s = -1 / (2 * lam)
        pairs = [
            (family(lam, envelope_s, (1,)), family(lam, envelope_s, (0, 1))),
            (family(lam, envelope_s, (1, 0, 2)), family(lam, envelope_s, (0, 3))),
        ]
        for f, g in pairs:
            af = fac.apply(fac.raising(lam, 1), f)
            ag = fac.apply(fac.lowering(lam, 1), g)
            if lam > 0:
                deg = max(af.poly.degree + g.poly.degree,
                          f.poly.degree + ag.poly.degree)
                u = overlap_halfwidth(float(lam), deg)
                spec = QuadratureSpec(lam=float(lam), half_width=u)
            else:
                spec = QuadratureSpec(lam=float(lam))
            lhs = integrate_measure(lambda y: af(y) * g(y), spec)
            rhs = integrate_measure(lambda y: f(y) * ag(y), spec)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-8 * scale


class TestExplicitConversion:
    def test_float_deformation_rejected_in_exact_paths(self):
        with pytest.raises(TypeError):
            fac.build_state(1, 0.3)
        with pytest.raises(TypeError):
            fac.lowering(0.3, 1)
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
        chain = fac.shape_chain(p, 3)
        assert chain.alphas == (1, Fraction(7, 10), Fraction(2, 5), Fraction(1, 10))
        assert chain.b_values == (1, Fraction(7, 10), Fraction(2, 5), Fraction(1, 10))
        assert chain.remainders[1] == Fraction(7, 10) + Fraction(3, 20)

    def test_adimensional_chain_parameter(self):
        assert fac.chain_b(3, Fraction(1, 10)) == Fraction(7, 10)
