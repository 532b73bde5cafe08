import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lambda_osc.exact import LamPoly, LamRatio
from lambda_osc.hermite import (
    derivative_relation_check,
    generating_coeffs,
    leading_coefficient,
    ode_residual,
    proportionality,
    rodrigues,
    series_solution,
    three_term_next,
)
from lambda_osc.polynomials import GENERIC, LambdaPoly
from lambda_osc.verification import (
    reference_generating_table,
    reference_rodrigues_table,
)

GOLDEN = Path(__file__).parent / "golden"


def classical_hermite_oracle(n_max):
    """Independent classical-polynomial oracle: H_{n+1} = 2y H_n - 2n H_{n-1},
    as integer coefficient lists ascending by power."""
    table = [[1], [0, 2]]
    for n in range(1, n_max):
        h_n, h_nm1 = table[n], table[n - 1]
        nxt = [0] + [2 * c for c in h_n]
        for k, c in enumerate(h_nm1):
            nxt[k] -= 2 * n * c
        table.append(nxt)
    return table[: n_max + 1]


class TestSeriesSolution:
    def test_published_even_entry(self):
        # 1 - 2(1 - L) y^2
        p = series_solution(2)
        assert p.coefficient(0) == LamPoly((1,))
        assert p.coefficient(2) == LamPoly((-2, 2))

    def test_published_odd_entry(self):
        # y - (2/3)(1 - 2L) y^3
        p = series_solution(3)
        assert p.coefficient(1) == LamPoly((1,))
        assert p.coefficient(3) == LamPoly((Fraction(-2, 3), Fraction(4, 3)))

    def test_published_quartic_entry(self):
        # 1 - 4(1 - 2L) y^2 + (4/3)(1 - 2L)(1 - 3L) y^4
        p = series_solution(4)
        assert p.coefficient(2) == LamPoly((-4, 8))
        assert p.coefficient(4) == Fraction(4, 3) * LamPoly((1, -2)) * LamPoly((1, -3))

    def test_degree_six_y6_coefficient_sign(self):
        # the recursion gives -(8/15)(1-3L)(1-4L)(1-5L): negative at zero
        # deformation, matching the classical polynomial's sign pattern
        p = series_solution(6)
        expected = Fraction(-8, 15) * LamPoly((1, -3)) * LamPoly((1, -4)) * LamPoly((1, -5))
        assert p.coefficient(6) == expected
        assert p.coefficient(6)(Fraction(0)) < 0

    def test_constant_solution(self):
        assert series_solution(0).coeffs == (LamPoly((1,)),)

    def test_truncation_is_exact(self):
        # the recursion continued past the terminating index stays zero
        for p in (2, 5, 8):
            poly = series_solution(p)
            assert poly.degree == p

    @pytest.mark.parametrize("p", range(9))
    def test_solves_the_equation_generic(self, p):
        assert ode_residual(series_solution(p), p).is_zero()


class TestRodrigues:
    def test_half_deformation_quadratic(self):
        # k_2 [2(1-L)y^2 - 1] at 1/2 with k_2 = 1/2: (y^2 - 1)/2
        r = rodrigues(2, Fraction(1, 2))
        assert r.coeffs == (Fraction(-1, 2), Fraction(0), Fraction(1, 2))

    def test_zeroth_is_one(self):
        assert rodrigues(0, Fraction(-2, 3)).coeffs == (Fraction(1),)

    def test_quartic_against_table(self):
        # k_4 [4(1-2L)(1-3L)y^4 - 12(1-2L)y^2 + 3], k_4 = (2-5L)(2-7L)
        lam = Fraction(1, 4)
        k4 = (2 - 5 * lam) * (2 - 7 * lam)
        expected = [
            3 * k4,
            Fraction(0),
            -12 * (1 - 2 * lam) * k4,
            Fraction(0),
            4 * (1 - 2 * lam) * (1 - 3 * lam) * k4,
        ]
        assert list(rodrigues(4, lam).coeffs) == expected

    @pytest.mark.parametrize(
        "lam", [Fraction(1, 5), Fraction(-1, 5), Fraction(1, 3)]
    )
    def test_full_table(self, lam):
        ref = reference_rodrigues_table(lam)
        for n in range(7):
            assert rodrigues(n, lam).coeffs == ref[n].coeffs

    def test_zero_deformation_rejected(self):
        with pytest.raises(ValueError):
            rodrigues(3, 0)

    def test_degenerate_degree_drop(self):
        # at 1/2 the leading product has a zero factor: degree drops to 1
        r = rodrigues(3, Fraction(1, 2))
        assert r.degree == 1
        assert r.coeffs == (Fraction(0), Fraction(3, 4))

    def test_degenerate_zero_polynomial(self):
        # at 2/5 the exponent collapses and the construction vanishes,
        # consistently with k_3 = (2-3L)(2-5L) = 0
        assert rodrigues(3, Fraction(2, 5)).is_zero()


class TestGeneratingFunction:
    def test_published_quadratic(self):
        h2 = generating_coeffs(2)[2]
        assert h2.coefficient(0) == LamPoly((-2,))
        assert h2.coefficient(2) == LamPoly((4, -4))

    def test_classical_cubic(self):
        h3 = generating_coeffs(3, Fraction(0))[3]
        assert list(h3.coeffs) == [0, -12, 0, 8]

    def test_published_quintic(self):
        # 8(1-L)(1-2L) [4(1-3L)(1-4L)y^5 - 20(1-3L)y^3 + 15y]
        h5 = generating_coeffs(5)[5]
        g5 = LamPoly((1, -1)) * LamPoly((1, -2))
        assert h5.coefficient(1) == 120 * g5
        assert h5.coefficient(3) == -160 * g5 * LamPoly((1, -3))
        assert h5.coefficient(5) == 32 * g5 * LamPoly((1, -3)) * LamPoly((1, -4))

    def test_full_reference_table(self):
        got = generating_coeffs(6)
        for n, ref in enumerate(reference_generating_table()):
            assert got[n].coeffs == ref.coeffs

    def test_classical_limit_matches_oracle(self):
        oracle = classical_hermite_oracle(12)
        got = generating_coeffs(12, Fraction(0))
        for n in range(13):
            assert [int(c) for c in got[n].coeffs] == oracle[n]

    @pytest.mark.parametrize("n", range(13))
    def test_parity(self, n):
        h = generating_coeffs(12)[n]
        assert h.degree == n
        assert all(not c for k, c in enumerate(h.coeffs) if (k - n) % 2)

    @pytest.mark.parametrize("p", range(10))
    def test_solves_the_equation(self, p):
        assert ode_residual(generating_coeffs(p)[p], p).is_zero()

    def test_coefficients_polynomial_in_deformation(self):
        for h in generating_coeffs(10):
            for c in h.coeffs:
                assert isinstance(c, LamPoly)


class TestThreeTermRecursion:
    def test_first_step(self):
        h = generating_coeffs(2)
        assert three_term_next(h[1], h[0], 1).coeffs == h[2].coeffs

    def test_classical_step(self):
        h = generating_coeffs(3, Fraction(0))
        nxt = three_term_next(h[2], h[1], 2)
        assert list(nxt.coeffs) == [0, -12, 0, 8]

    def test_degenerate_degree_drop_at_one_third(self):
        # the quartic's leading factor vanishes at 1/3; published bracket
        # reduces to 8 - (32/3) y^2
        lam = Fraction(1, 3)
        h = generating_coeffs(3, lam)
        h4 = three_term_next(h[3], h[2], 3)
        assert h4.degree == 2
        assert h4.coeffs == (Fraction(8), Fraction(0), Fraction(-32, 3))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_direct_construction_generic(self, n):
        h = generating_coeffs(n + 1)
        assert three_term_next(h[n], h[n - 1], n).coeffs == h[n + 1].coeffs

    def test_normalization_mismatch_rejected(self):
        h = generating_coeffs(2)
        with pytest.raises(ValueError):
            three_term_next(series_solution(1), h[0], 1)

    def test_pair_is_checked_by_value(self):
        # a generating pair stays one after arithmetic that keeps its
        # values, and a rescaled member is refused
        h = generating_coeffs(3)
        assert three_term_next(h[1].scale(1), h[0], 1) == h[2]
        lam = Fraction(1, 3)
        fixed = [p.substitute_lambda(lam) for p in h]
        assert three_term_next(fixed[2], fixed[1], 2) == (
            generating_coeffs(3, lam)[3])
        with pytest.raises(ValueError, match="generating normalization"):
            three_term_next(h[2].scale(2), h[1], 2)


def _golden_lambdas():
    rows = json.loads((GOLDEN / "exact_high_degree.json").read_text())
    return sorted({Fraction(r["lam"]) for r in rows})


class TestRecursionGroup:
    """The three-term chain from h_0 and h_1 rebuilds the generating family,
    which satisfies the derivative recursion at every index."""

    @staticmethod
    def chain(family):
        h = list(family[:2])
        for n in range(1, len(family) - 1):
            h.append(three_term_next(h[n], h[n - 1], n))
        return h

    @pytest.mark.parametrize(
        "lam, n_max",
        [(GENERIC, 44), (Fraction(1, 3), 60)]
        + [(lam, 60) for lam in _golden_lambdas()],
        ids=lambda v: "generic" if v is GENERIC else str(v),
    )
    def test_chain_equals_generating_route(self, lam, n_max):
        family = generating_coeffs(n_max, lam)
        assert self.chain(family) == family
        assert all(derivative_relation_check(family, n)
                   for n in range(n_max - 1))

    def test_degree_drops_at_one_third(self):
        # the binomial weights vanish from k = 4 on, so h_n keeps only the
        # terms y^(2k - n) with n/2 <= k <= 3: degree 6 - n, then zero
        family = generating_coeffs(60, Fraction(1, 3))
        assert [h.degree for h in family] == [0, 1, 2, 3, 2, 1, 0] + [-1] * 54


class TestDerivativeRelation:
    def test_base_case_generic(self):
        assert derivative_relation_check(generating_coeffs(2), 0)

    def test_classical_reduction(self):
        assert derivative_relation_check(generating_coeffs(2, Fraction(0)), 0)

    @pytest.mark.parametrize("n", range(0, 19))
    def test_generic_sweep(self, n):
        family = generating_coeffs(20)
        assert derivative_relation_check(family, n)

    def test_insufficient_family(self):
        with pytest.raises(ValueError):
            derivative_relation_check(generating_coeffs(2), 1)


class TestProportionality:
    def test_rodrigues_vs_generating(self):
        for lam in (Fraction(1, 5), Fraction(-3, 10)):
            c = proportionality(rodrigues(2, lam), generating_coeffs(2, lam)[2])
            assert c == (2 - 3 * lam) / 2

    def test_identity(self):
        p = generating_coeffs(4)[4]
        assert proportionality(p, p) == 1

    def test_series_vs_generating_generic(self):
        c = proportionality(series_solution(2), generating_coeffs(2)[2])
        assert c == Fraction(-1, 2)

    def test_generic_polynomial_constant(self):
        # quartic series entry scales by 12(1 - L)
        c = proportionality(generating_coeffs(4)[4], series_solution(4))
        assert c == LamPoly((12, -12))

    def test_generic_rational_constant(self):
        c = proportionality(series_solution(4), generating_coeffs(4)[4])
        assert isinstance(c, LamRatio)
        assert c(Fraction(1, 2)) == Fraction(1, 6)

    def test_not_proportional(self):
        a = generating_coeffs(2)[2]
        assert proportionality(a, generating_coeffs(1)[1]) is None

    def test_zero_cases(self):
        z = LambdaPoly(())
        p = generating_coeffs(1)[1]
        assert proportionality(z, p) == 0
        assert proportionality(p, z) is None
        assert proportionality(z, z) == 1


class TestIntegerPaths:
    """The integer kernels hand back the same ring elements, of the same
    types, as the Fraction arithmetic they replace."""

    @pytest.mark.parametrize("lam", [
        Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(3, 151),
        Fraction(-9, 10), Fraction(7, 2)], ids=str)
    def test_generic_family_specialises_to_the_fixed_one(self, lam):
        generic, fixed = generating_coeffs(30), generating_coeffs(30, lam)
        for m in range(31):
            assert generic[m].substitute_lambda(lam) == fixed[m]

    def test_fixed_coefficients_are_fractions(self):
        lam = Fraction(-2, 7)
        polys = generating_coeffs(12, lam) + [
            f(n, lam) for f in (series_solution, rodrigues) for n in range(13)]
        for p in polys:
            assert all(type(c) is Fraction for c in p.coeffs)

    def test_generic_coefficients_are_lampolys_of_fractions(self):
        polys = generating_coeffs(12) + [series_solution(n) for n in range(13)]
        for p in polys:
            for c in p.coeffs:
                assert type(c) is LamPoly
                assert all(type(a) is Fraction for a in c.coeffs)

    def test_generic_series_constants_are_pinned(self):
        family = generating_coeffs(44)
        consts = [proportionality(series_solution(n), family[n])
                  for n in range(45)]
        assert [type(c) for c in consts] == [Fraction] * 3 + [LamRatio] * 42
        for n, c in enumerate(consts):
            num, den = (c.num, c.den) if isinstance(c, LamRatio) else (c, 1)
            assert series_solution(n).scale(den) == family[n].scale(num)
        text = "\n".join(map(str, consts)).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == (
            "54f8c308bc9cc990b5b7298083919b905e9e4e1dd5ff236dad0a5bc1e56f548d")


class TestLeadingCoefficient:
    def test_published_product(self):
        assert leading_coefficient(2) == LamPoly((2, -2)) * LamPoly((2, -3))

    def test_classical_limit(self):
        for m in range(8):
            assert leading_coefficient(m)(Fraction(0)) == 2**m

    def test_consistent_with_table(self):
        # table leading term: k_2 * 2(1 - L) equals the closed product
        k2_lead = LamPoly((2, -3)) * LamPoly((2, -2))
        assert leading_coefficient(2) == k2_lead

    @pytest.mark.parametrize("lam", [Fraction(1, 5), Fraction(-1, 5)])
    def test_matches_constructed_polynomial(self, lam):
        for m in range(7):
            r = rodrigues(m, lam)
            assert r.coefficient(m) == leading_coefficient(m)(lam)

    def test_degeneration_zeroes(self):
        # 2 - r*lam = 0 for r in [m, 2m-1] forces a degree drop
        lam = Fraction(2, 7)  # r = 7 in range for m = 4..7
        assert leading_coefficient(4)(lam) == 0
        assert rodrigues(4, lam).degree < 4


class TestRouteEquivalence:
    @pytest.mark.parametrize(
        "lam",
        [Fraction(1, 10), Fraction(-1, 10), Fraction(3, 10),
         Fraction(-3, 10), Fraction(1, 7)],
    )
    def test_pairwise_proportional(self, lam):
        gen = generating_coeffs(12, lam)
        for n in range(13):
            r = rodrigues(n, lam)
            s = series_solution(n, lam)
            c_rg = proportionality(r, gen[n])
            c_sg = proportionality(s, gen[n])
            assert c_rg is not None and c_rg != 0
            assert c_sg is not None and c_sg != 0


class TestSeriesRatioLimit:
    def test_nonterminating_tail_ratio(self):
        # for a non-polynomial eigenvalue the coefficient ratio tends to
        # the deformation parameter (radius 1/sqrt|lam|); the 1/n and
        # 1/n^2 corrections are removed by two extrapolation levels
        def ratio(lam, e, n):
            return abs(-(n * (lam * n - 2) + (2 * e - 1)) / ((n + 2) * (n + 1)))

        for lam in (0.3, -0.3, 0.1, -0.1):
            e = 0.37
            r = {n: ratio(lam, e, n) for n in (25, 50, 100)}
            first_25 = 2 * r[50] - r[25]
            first_50 = 2 * r[100] - r[50]
            limit = (4 * first_50 - first_25) / 3
            assert limit == pytest.approx(abs(lam), rel=1e-2)

    def test_ratio_from_actual_coefficients(self):
        # same limit read off an actual series run (about 50 even terms)
        lam, e = 0.3, 0.37
        a = {0: 1.0}
        for n in range(0, 106, 2):
            a[n + 2] = -a[n] * (n * (lam * n - 2) + (2 * e - 1)) / ((n + 2) * (n + 1))
        r = {n: abs(a[n + 2] / a[n]) for n in (26, 52, 104)}
        first_26 = 2 * r[52] - r[26]
        first_52 = 2 * r[104] - r[52]
        assert (4 * first_52 - first_26) / 3 == pytest.approx(lam, rel=1e-2)
