import math

import numpy as np
import pytest

from lambda_osc.params import chart
from lambda_osc.spectrum import energy
from lambda_osc.sturm_liouville import (
    GRID_CAP,
    RefinementError,
    assemble,
    convergence_order,
    default_halfwidth,
    eigenvalues,
    potential_u,
    refine,
)


class TestAssembly:
    def test_walls_for_unit_negative(self):
        d = assemble(-1.0, 256)
        assert d.half_width == pytest.approx(math.pi / 2)
        assert d.u[0] > -d.half_width and d.u[-1] < d.half_width
        assert np.all(np.isfinite(d.diag))

    def test_wall_position(self):
        ch = chart(-0.3)
        assert ch.wall / ch.w == pytest.approx(0.5 * math.pi / math.sqrt(0.3))

    def test_continuum_threshold(self):
        # all four bound levels at 0.3 sit below (1 + 0.3)/(2*0.3)
        v_inf = chart(0.3).plateau
        assert v_inf == pytest.approx(13.0 / 6.0)
        for m in range(4):
            assert float(energy(0.3, m)) < v_inf
        u = np.array([50.0])
        assert potential_u(u, 0.3)[0] == pytest.approx(v_inf, rel=1e-8)

    def test_potential_is_the_written_out_formula(self):
        # the SL records stay byte-identical only if the chart's potential
        # rounds as the formulas written out per sign did
        lam = 0.3
        u = assemble(lam, 512, 20.0).u
        r = math.sqrt(lam)
        assert np.array_equal(potential_u(u, lam),
                              0.5 * (1.0 + lam) * np.tanh(r * u) ** 2 / lam)
        lam = -0.3
        u = assemble(lam, 512).u
        r = math.sqrt(-lam)
        assert np.array_equal(
            potential_u(u, lam),
            0.5 * (1.0 + lam) * np.tan(r * u) ** 2 / (-lam))
        assert np.array_equal(potential_u(u, 0.0), 0.5 * u * u)

    def test_harmonic_potential(self):
        assert potential_u(np.array([1.5]), 0.0)[0] == pytest.approx(1.125)

    def test_symmetric_tridiagonal(self):
        d = assemble(0.3, 128, 20.0)
        assert d.diag.shape == (128,)
        assert d.offdiag.shape == (127,)
        assert np.all(d.offdiag == d.offdiag[0])

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            assemble(0.3, 32, 20.0)

    def test_truncation_required_for_nonnegative(self):
        with pytest.raises(ValueError):
            assemble(0.3, 128)
        with pytest.raises(ValueError):
            assemble(0.0, 128, -1.0)


class TestEigenvalues:
    def test_harmonic(self):
        # a raw second-order grid, no extrapolation
        d = assemble(0.0, 2048, default_halfwidth(0.0, 3))
        vals = eigenvalues(d, 3)
        assert vals == pytest.approx([0.5, 1.5, 2.5], abs=1e-4)

    def test_published_negative(self):
        vals, _ = refine(-0.3, 2, tol=1e-8)
        assert vals == pytest.approx([0.5, 1.65], abs=1e-7)

    def test_published_positive(self):
        vals, _ = refine(0.3, 4, tol=1e-8)
        assert vals == pytest.approx([0.5, 1.35, 1.90, 2.15], abs=1e-7)

    def test_seven_bound_states(self):
        vals, _ = refine(0.15, 7, tol=1e-6)
        exact = [float(energy(0.15, m)) for m in range(7)]
        assert vals == pytest.approx(exact, abs=1e-6)
        v_inf = chart(0.15).plateau
        assert all(v < v_inf for v in vals)

    @pytest.mark.parametrize("lam,n_bound", [(0.3, 4), (0.15, 7)])
    def test_exactly_bound_count_below_threshold(self, lam, n_bound):
        # the next discrete levels are truncation-box artifacts sitting
        # just above the potential plateau
        d = assemble(lam, 8192, default_halfwidth(lam, n_bound))
        vals = eigenvalues(d, n_bound + 3)
        v_inf = chart(lam).plateau
        assert sum(1 for v in vals if v < v_inf) == n_bound

    def test_too_many_levels_rejected(self):
        d = assemble(0.0, 64, 10.0)
        with pytest.raises(ValueError):
            eigenvalues(d, 63)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_levels_rejected(self, k):
        d = assemble(0.3, 128, 20.0)
        with pytest.raises(ValueError, match=f"k = {k}"):
            eigenvalues(d, k)

    def test_deterministic(self):
        d = assemble(0.15, 512, 30.0)
        a = eigenvalues(d, 5)
        b = eigenvalues(d, 5)
        assert np.array_equal(a, b)


class TestRefinement:
    @pytest.mark.parametrize("lam", [-0.3, -0.1, 0.0, 0.15, 0.3])
    def test_matches_closed_form(self, lam):
        k = 7 if lam <= 0 else (4 if lam == 0.3 else 7)
        vals, levels = refine(lam, k, tol=1e-6)
        exact = np.array([float(energy(lam, m)) for m in range(k)])
        assert np.max(np.abs(vals - exact)) <= 1e-6
        assert levels[-1].error_estimate < 1e-6
        assert levels[0].error_estimate is None

    @pytest.mark.parametrize("lam, k", [(-1e-8, 1), (-3e-308, 2),
                                        (-0.001, 8)])
    def test_far_wall_is_cut_at_the_harmonic_half_width(self, lam, k):
        # a wall at pi/(2 sqrt|lam|) left the first cells' tan^2 entries to
        # swamp the eigensolver (a last estimate of 0.547 at -1e-8, infs or
        # NaNs at -3e-308, RefinementError at -0.001); the Dirichlet cut at
        # the lam = 0 half-width converges in a few grids
        cut = default_halfwidth(0.0, k, tail_tol=1e-12)
        assert default_halfwidth(lam, k) == cut
        assert cut < 0.5 * math.pi / math.sqrt(-lam)
        vals, levels = refine(lam, k)
        exact = np.array([float(energy(lam, m)) for m in range(k)])
        assert np.max(np.abs(vals - exact)) <= 1e-11
        assert len(levels) <= 4

    @pytest.mark.parametrize("lam", [-0.3, -0.1])
    def test_near_wall_is_kept(self, lam):
        # the records' deformations: the harmonic half-width lies beyond
        # the wall, so the grid still runs to it
        assert default_halfwidth(lam, 7) == 0.5 * math.pi / math.sqrt(-lam)

    def test_negative_subnormal_is_the_harmonic_oscillator(self):
        a, _ = refine(-1e-320, 3)
        b, _ = refine(0.0, 3)
        assert np.array_equal(a, b)

    def test_tolerance_guard(self):
        with pytest.raises(ValueError):
            refine(0.3, 2, tol=1e-15)

    @pytest.mark.parametrize("lam", [-0.3, 0.0, 0.3])
    def test_no_levels_rejected(self, lam):
        # before the half-width, whose level arithmetic needs k >= 1
        with pytest.raises(ValueError, match="k = 0"):
            refine(lam, 0)

    @pytest.mark.parametrize("lam,k", [(0.3, 5), (0.3, 6), (0.15, 8), (0.5, 3)])
    def test_unbound_levels_rejected(self, lam, k):
        # above ceil(1/lam) levels the grid returns eigenvalues of the
        # truncated continuum, which no closed form describes
        with pytest.raises(ValueError, match=f"k = {k}: only"):
            refine(lam, k)

    def test_grid_cap(self):
        # 1e-13 is out of reach, so refinement runs to the cap and reports
        # every level it tried
        with pytest.raises(RefinementError) as err:
            refine(-0.3, 3, tol=1e-13)
        assert err.value.levels[-1].n == GRID_CAP

    def test_truncation_robustness(self):
        u = default_halfwidth(0.15, 7)
        a, _ = refine(0.15, 7, tol=1e-7, half_width=u)
        b, _ = refine(0.15, 7, tol=1e-7, half_width=2 * u)
        assert np.max(np.abs(a - b)) < 1e-6


class TestConvergenceOrder:
    @pytest.mark.parametrize("lam,m", [(0.3, 0), (0.3, 2), (-0.3, 0), (0.0, 1)])
    def test_second_order(self, lam, m):
        order = convergence_order(lam, m)
        assert 1.8 <= order <= 2.2

