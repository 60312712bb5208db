"""Tests for the finite-difference solvers, their IMEX-BDF2 step and its
tridiagonal kernel."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solver_reference as ref
from uvpricer import cli, hjb, sde
from uvpricer.errors import NonFiniteError, StabilityError
from uvpricer.analytic import bs_call, fixed_vol_price
from uvpricer.convergence import _limit_values, _refined_for_floor, _solve_deltas
from uvpricer.hjb import (
    _full_values,
    _kept_indices,
    _limit_and_corrector,
    _Tridiagonal,
    min_time_steps,
    solve_bsb_1d,
    solve_corrector,
    solve_hjb_2d,
)
from uvpricer.model import GridSpec, ModelParams, PiecewiseLinearPayoff
from uvpricer.surface import PriceSurface

BUTTERFLY = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)


def mk_params(sigma_min=0.1, sigma_max=0.2, delta=0.0, rho=0.5, r=0.0, sigma=0.5):
    return ModelParams(r=r, a=0.6, b=0.5, alpha=2.0, sigma=sigma, rho=rho,
                       sigma_min=sigma_min, sigma_max=sigma_max, delta=delta)


def mk_grid(params, kind, x_max=300.0, n_x=299, v_min=-1.0, v_max=0.0, n_v=5,
            T=0.15, v=None, cfl_safety=0.4):
    """Grid sized exactly at the stability bound for the given solver kind."""
    trial = GridSpec(x_min=0.0, x_max=x_max, n_x=n_x, v_min=v_min, v_max=v_max,
                     n_v=n_v, T=T, n_t=1, cfl_safety=cfl_safety)
    n_t = min_time_steps(params, trial, kind, v)
    return dataclasses.replace(trial, n_t=n_t)


# A fine v-axis, on which the explicit factor terms bind above the
# accuracy floor.
FINE_V = GridSpec(x_min=0.0, x_max=300.0, n_x=99, v_min=-1.0, v_max=0.0,
                  n_v=81, T=0.15, n_t=1)


class TestMinTimeSteps:
    def test_wider_interval_needs_more_steps(self):
        """Where the explicit terms bind, the bound grows with sigma_max,
        through the cross term."""
        narrow = min_time_steps(mk_params(sigma_max=0.15, delta=0.5), FINE_V)
        wide = min_time_steps(mk_params(sigma_max=0.3, delta=0.5), FINE_V)
        assert wide > narrow > 128

    def test_factor_terms_enter_the_full_bound(self):
        """With delta > 0 the two-dimensional bound exceeds the asset-only one."""
        p = mk_params(delta=0.5)
        assert min_time_steps(p, FINE_V, "full") > min_time_steps(p, FINE_V, "bsb")
        p0 = mk_params(delta=0.0)
        for grid in (FINE_V, dataclasses.replace(FINE_V, n_v=5)):
            assert min_time_steps(p0, grid, "full") == min_time_steps(p0, grid, "bsb")

    def test_single_level_enters_no_term(self):
        """The x-diffusion, the one term that read ``e^{2v}``, is implicit:
        a single level gives the family's count, the accuracy floor."""
        grid = GridSpec(x_min=0.0, x_max=300.0, n_x=99, v_min=-1.0, v_max=0.0,
                        n_v=5, T=0.15, n_t=1)
        p = mk_params()
        for kind in ("bsb", "corrector"):
            assert min_time_steps(p, grid, kind, v=-1.0) == min_time_steps(
                p, grid, kind) == 128

    def test_refinement_scales_quadratically(self):
        """Halving dx and dv roughly quadruples the count where the
        v-diffusion and cross terms bind; halving dx alone leaves the
        asset-only count at the floor."""
        p = mk_params(delta=0.5)
        fine = FINE_V.refined(factor_x=2, factor_v=2)
        assert min_time_steps(p, fine) > 3.8 * min_time_steps(p, FINE_V)
        assert min_time_steps(p, FINE_V.refined(factor_x=2), "bsb") == 128

    def test_accuracy_floor_and_binding_term(self):
        """The count is the larger of the explicit terms' bound and 128, and
        a refusal names the binding term: 128 on section-4's grid and on
        the refined grid of the benchmark's sweep (2,474 and 2,415
        explicit steps before)."""
        p = ModelParams(r=0.0, a=0.6, b=0.5, alpha=2.0, sigma=0.5, rho=0.5,
                        sigma_min=0.1, sigma_max=0.2, delta=0.5)
        section4 = GridSpec(x_min=0.0, x_max=400.0, n_x=400, v_min=-2.0,
                            v_max=0.0, n_v=40, T=0.15, n_t=1)
        bench = GridSpec(x_min=0.0, x_max=400.0, n_x=200, v_min=-2.0, v_max=0.0,
                         n_v=20, T=0.15, n_t=1)
        assert min_time_steps(p, section4) == 128
        assert _refined_for_floor(p.with_delta(0.001), bench).n_t == 128
        for grid, want in ((section4, "128-step accuracy floor"),
                           (FINE_V, "explicit v-diffusion term")):
            needed = min_time_steps(p, grid)
            with pytest.raises(StabilityError, match=want) as err:
                solve_hjb_2d(p, BUTTERFLY, dataclasses.replace(grid, n_t=needed - 1))
            assert err.value.min_time_steps == needed

    def test_unknown_kind_rejected(self):
        """Only the three solver kinds are recognized."""
        grid = GridSpec(x_min=0.0, x_max=300.0, n_x=99, v_min=-1.0, v_max=0.0,
                        n_v=5, T=0.15, n_t=1)
        with pytest.raises(ValueError):
            min_time_steps(mk_params(), grid, "implicit")

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_rejected(self, v):
        """A NaN or infinite level is named, not overflowed or truncated."""
        grid = GridSpec(x_min=0.0, x_max=300.0, n_x=99, v_min=-1.0, v_max=0.0,
                        n_v=5, T=0.15, n_t=1)
        for kind in ("full", "bsb", "corrector"):
            with pytest.raises(ValueError, match="v must be finite"):
                min_time_steps(mk_params(), grid, kind, v=v)


class TestStabilityGate:
    def test_undersized_grid_refused(self):
        """Solving below the bound raises and reports the admissible count."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=99)
        needed = grid.n_t
        bad = dataclasses.replace(grid, n_t=needed - 1)
        with pytest.raises(StabilityError) as err:
            solve_bsb_1d(p, BUTTERFLY, bad)
        assert err.value.min_time_steps == needed

    def test_bound_is_admissible(self):
        """A grid sized exactly at the bound solves without incident."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=59, v=0.0)
        surface = solve_bsb_1d(p, BUTTERFLY, grid, v=0.0)
        assert np.all(np.isfinite(surface.values))

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_checked_before_the_gate(self, v):
        """A NaN or infinite level is refused by name, also on a grid the
        stability gate would refuse."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=59, v=0.0)
        for n_t in (grid.n_t, 1):
            with pytest.raises(ValueError, match="v must be finite"):
                solve_bsb_1d(p, BUTTERFLY, dataclasses.replace(grid, n_t=n_t),
                             v=v)

    def test_full_solver_gate(self):
        """The two-dimensional solve enforces its own (larger) bound."""
        p = mk_params(delta=0.5)
        grid = mk_grid(p, "bsb", n_x=99, n_v=81)  # misses the factor terms
        with pytest.raises(StabilityError):
            solve_hjb_2d(p, BUTTERFLY, grid)


def tridiagonal_systems():
    """Sizes 1 to 70, the powers of two and their predecessors among them,
    trailing shapes of up to two axes, and diagonally dominant rows with
    their couplings, some of them zero."""
    sizes = st.one_of(st.integers(1, 70),
                      st.sampled_from([2**k - 1 for k in range(1, 7)]
                                      + [2**k for k in range(7)]))
    trailing = st.lists(st.integers(1, 4), max_size=2).map(tuple)
    return st.tuples(sizes, trailing, st.integers(0, 2**32 - 1))


class TestTridiagonal:
    """The cyclic-reduction kernel against dense solves."""

    @settings(max_examples=60, deadline=None)
    @given(system=tridiagonal_systems())
    @example(system=(1, (), 0))
    @example(system=(63, (2, 3), 1))
    @example(system=(64, (5,), 2))
    def test_matches_dense_solve(self, system):
        n, trailing, seed = system
        rng = np.random.default_rng(seed)
        shape = (n, *trailing)
        lower, upper = (-rng.uniform(0.0, 50.0, shape) for _ in range(2))
        for coupling in (lower, upper):
            coupling[rng.random(shape) < 0.2] = 0.0
        diag = rng.uniform(0.5, 3.0, shape) - lower - upper
        d = rng.normal(0.0, 10.0, shape)
        tri = _Tridiagonal(shape)
        tri.lower[...], tri.diag[...], tri.upper[...], tri.rhs[...] = (
            lower, diag, upper, d)
        tri.solve()
        y = tri.rhs
        for col in np.ndindex(*trailing):
            at = (slice(None), *col)
            M = (np.diag(diag[at]) + np.diag(lower[at][1:], -1)
                 + np.diag(upper[at][:-1], 1))
            want = np.linalg.solve(M, d[at])
            scale = np.abs(M) @ np.abs(want) + np.abs(d[at])
            assert np.all(np.abs(M @ y[at] - d[at]) <= 1e-13 * scale.max())
            assert np.allclose(y[at], want, rtol=1e-10, atol=1e-12 * scale.max())

    def test_columns_are_independent(self):
        """A column's bits do not depend on the columns solved beside it."""
        rng = np.random.default_rng(5)
        shape = (37, 3, 4)
        parts = [rng.uniform(0.0, 5.0, shape) for _ in range(4)]
        parts[1] += parts[0] + parts[3]
        parts[0], parts[3] = -parts[0], -parts[3]
        whole, alone = _Tridiagonal(shape), _Tridiagonal((37, 4))
        for tri, cut in ((whole, np.s_[:]), (alone, np.s_[:, 1])):
            for slot, part in zip((tri.lower, tri.diag, tri.rhs, tri.upper), parts):
                slot[...] = part[cut]
            tri.solve()
        assert np.array_equal(whole.rhs[:, 1], alone.rhs)


class TestTimeStep:
    """The IMEX-BDF2 step against the explicit march and against itself."""

    def test_agrees_with_the_explicit_march_within_its_time_error(self):
        """The explicit Euler march at its stability bound misses its time
        limit by about twice its change on doubling the steps; the IMEX
        march lies within that of it, and nearer the finer march."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "full", x_max=200.0, n_x=39)
        n_e = ref.explicit_min_steps(p, grid, "full")
        coarse, fine = (ref.explicit_solve_hjb_2d(
            p, BUTTERFLY, dataclasses.replace(grid, n_t=n))[0][0]
            for n in (n_e, 2 * n_e))
        imex = solve_hjb_2d(p, BUTTERFLY, grid).values[0]
        change = np.abs(coarse - fine).max()
        assert change > 1e-3
        assert np.abs(imex - coarse).max() <= 2.5 * change
        assert np.abs(imex - fine).max() < np.abs(imex - coarse).max()

    def test_second_order_ladder(self):
        """At 128, 256 and 512 steps the successive changes of P_delta, P0
        and their difference fall by a factor between 3 and 5."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "full", x_max=200.0, n_x=99, v_min=-2.0, n_v=9)
        ladder = []
        for n_t in (128, 256, 512):
            g = dataclasses.replace(grid, n_t=n_t)
            ladder.append([solve_hjb_2d(p, BUTTERFLY, g).value_at(0, 100.0, -1.0),
                           solve_bsb_1d(p, BUTTERFLY, g).value_at(0, 100.0, -1.0)])
        ladder = np.array(ladder)
        ladder = np.column_stack([ladder, ladder[:, 0] - ladder[:, 1]])
        first, second = np.diff(ladder, axis=0)
        assert np.all((3.0 <= first / second) & (first / second <= 5.0))


class TestBsbSolver:
    def test_degenerate_interval_matches_fixed_vol(self):
        """A collapsed multiplier interval reproduces the one-vol price."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        grid = mk_grid(p, "bsb", v=0.0)  # dx = 1, strikes on nodes
        surface = solve_bsb_1d(p, BUTTERFLY, grid, v=0.0,
                               cell_average_terminal=True)
        for x in (90.0, 100.0, 110.0):
            exact = fixed_vol_price(BUTTERFLY, x, 0.15, 0.15)
            assert surface.value_at(0, x, 0.0) == pytest.approx(exact, rel=5e-3)

    def test_convex_payoff_prices_at_upper_bound(self):
        """For a call the worst case sits at sigma_max throughout."""
        p = mk_params()
        payoff = PiecewiseLinearPayoff.call(100.0)
        grid = mk_grid(p, "bsb", n_x=149, v=0.0)
        surface = solve_bsb_1d(p, payoff, grid, v=0.0, cell_average_terminal=True)
        exact = bs_call(100.0, 100.0, 0.2, 0.15)
        assert surface.value_at(0, 100.0, 0.0) == pytest.approx(exact, rel=1e-2)

    def test_concave_payoff_prices_at_lower_bound(self):
        """A short call is worst-cased at sigma_min."""
        p = mk_params()
        payoff = PiecewiseLinearPayoff.from_calls([(100.0, -1.0)])
        grid = mk_grid(p, "bsb", n_x=149, v=0.0)
        surface = solve_bsb_1d(p, payoff, grid, v=0.0, cell_average_terminal=True)
        exact = -bs_call(100.0, 100.0, 0.1, 0.15)
        assert surface.value_at(0, 100.0, 0.0) == pytest.approx(exact, rel=1e-2)

    def test_family_matches_single_level(self):
        """Each column of the family solve equals the single-level solve."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=59, n_v=3)
        family = solve_bsb_1d(p, BUTTERFLY, grid)
        for j, v in enumerate(grid.v_nodes):
            single = solve_bsb_1d(p, BUTTERFLY, grid, v=float(v))
            assert family.values[:, :, j] == pytest.approx(
                single.values[:, :, 0], abs=1e-12
            )
            assert single.v_constant == float(v)
            assert np.ptp(single.values, axis=2) == pytest.approx(0.0, abs=0.0)

    def test_interval_monotonicity(self):
        """Nested multiplier intervals order the worst-case prices."""
        wide = mk_params(sigma_min=0.1, sigma_max=0.2)
        mid = mk_params(sigma_min=0.12, sigma_max=0.18)
        point = mk_params(sigma_min=0.15, sigma_max=0.15)
        grid = mk_grid(wide, "bsb", n_x=149, v=0.0)
        prices = [
            solve_bsb_1d(q, BUTTERFLY, grid, v=0.0,
                         cell_average_terminal=True).value_at(0, 100.0, 0.0)
            for q in (wide, mid, point)
        ]
        assert prices[0] >= prices[1] >= prices[2]

    def test_dominance_bounds(self):
        """The limit price sits between the one-vol price and the leg envelope."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=149, v=0.0)
        price = solve_bsb_1d(p, BUTTERFLY, grid, v=0.0,
                             cell_average_terminal=True).value_at(0, 100.0, 0.0)
        floor = fixed_vol_price(BUTTERFLY, 100.0, 0.1, 0.15)
        envelope = (
            bs_call(100.0, 90.0, 0.2, 0.15)
            - 2.0 * bs_call(100.0, 100.0, 0.1, 0.15)
            + bs_call(100.0, 110.0, 0.2, 0.15)
        )
        assert floor - 0.05 <= price <= envelope + 0.05

    def test_terminal_slice_exact(self):
        """The stored terminal slice is the payoff itself, untouched."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=59, n_v=3)
        surface = solve_bsb_1d(p, BUTTERFLY, grid)
        expected = np.repeat(BUTTERFLY(grid.x_nodes)[:, None], grid.n_v, axis=1)
        assert np.array_equal(surface.slice_at(grid.n_t), expected)

    def test_cell_average_terminal(self):
        """With averaging on, terminal nodes carry exact cell means, bit for
        bit, in the limit and in the full solver."""
        for solve, kind, p in ((solve_bsb_1d, "bsb", mk_params()),
                               (solve_hjb_2d, "full", mk_params(delta=0.5))):
            grid = mk_grid(p, kind, n_x=59, n_v=3)
            surface = solve(p, BUTTERFLY, grid, cell_average_terminal=True)
            half = 0.5 * grid.dx
            expected = np.array(
                [BUTTERFLY.average(x - half, x + half) for x in grid.x_nodes]
            )
            assert np.array_equal(surface.slice_at(grid.n_t),
                                  np.repeat(expected[:, None], grid.n_v, axis=1))

    def test_slice_retention(self):
        """store_slices keeps a strided subset bracketing the time range."""
        p = mk_params()
        grid = mk_grid(p, "bsb", n_x=59, n_v=3)
        assert grid.n_t > 20
        surface = solve_bsb_1d(p, BUTTERFLY, grid, store_slices=True,
                               max_kept_slices=11)
        assert surface.n_kept <= 11
        assert surface.kept_times[0] == 0
        assert surface.kept_times[-1] == grid.n_t
        assert solve_bsb_1d(p, BUTTERFLY, grid).kept_times == (0, grid.n_t)


class TestFullSolver:
    def test_zero_delta_reduces_to_limit_family(self):
        """At delta = 0 the two-dimensional solve equals the limit family."""
        p = mk_params(delta=0.0)
        grid = mk_grid(p, "full", n_x=59)
        full = solve_hjb_2d(p, BUTTERFLY, grid)
        family = solve_bsb_1d(p, BUTTERFLY, grid)
        assert full.values == pytest.approx(family.values, abs=1e-10)
        assert full.kind == "full_delta"

    def test_price_respects_payoff_range(self):
        """The worst-case butterfly price stays within the payoff range."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "full", n_x=59)
        surface = solve_hjb_2d(p, BUTTERFLY, grid, cell_average_terminal=True)
        # small undershoot near the kinks is discretization noise
        assert surface.values.min() >= -1e-3
        assert surface.values.max() <= 10.0 + 1e-3

    def test_interval_monotonicity(self):
        """Nested multiplier intervals order the moving-factor prices too."""
        wide = mk_params(sigma_min=0.1, sigma_max=0.2, delta=0.25)
        narrow = mk_params(sigma_min=0.13, sigma_max=0.17, delta=0.25)
        grid = mk_grid(wide, "full", n_x=99)
        p_wide = solve_hjb_2d(wide, BUTTERFLY, grid, cell_average_terminal=True)
        p_narrow = solve_hjb_2d(narrow, BUTTERFLY, grid, cell_average_terminal=True)
        assert p_wide.value_at(0, 100.0, -0.5) >= p_narrow.value_at(0, 100.0, -0.5)

    def test_value_read_matches_storage(self):
        """Node-aligned reads return the stored entries."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "full", n_x=59)
        surface = solve_hjb_2d(p, BUTTERFLY, grid)
        i, j = 20, 2
        x, v = grid.x_nodes[i], grid.v_nodes[j]
        assert surface.value_at(0, float(x), float(v)) == pytest.approx(
            surface.values[0, i, j], rel=1e-13
        )


class TestCorrector:
    def _limit_family(self, p, n_x=99, x_max=200.0, v_min=-1.5, n_v=7):
        grid = mk_grid(p, "bsb", x_max=x_max, n_x=n_x, v_min=v_min, n_v=n_v)
        p0 = solve_bsb_1d(p, BUTTERFLY, grid, store_slices=True,
                          cell_average_terminal=True)
        return grid, p0

    def test_zero_correlation_vanishes(self):
        """With rho = 0 the correction source is absent and P1 is zero."""
        p = mk_params(rho=0.0, delta=0.25)
        grid, p0 = self._limit_family(p, n_x=59)
        p1 = solve_corrector(p, BUTTERFLY, grid, p0)
        assert np.all(p1.values == 0.0)
        assert p1.kind == "corrector_p1"

    def test_correction_is_delta_free(self):
        """The correction PDE does not involve delta at all."""
        base = mk_params(delta=0.3)
        grid, p0 = self._limit_family(base, n_x=59)
        p1_a = solve_corrector(base, BUTTERFLY, grid, p0)
        p1_b = solve_corrector(dataclasses.replace(base, delta=0.7),
                               BUTTERFLY, grid, p0)
        assert np.array_equal(p1_a.values, p1_b.values)

    def test_terminal_slice_is_zero(self):
        """The correction starts from a vanishing terminal condition."""
        p = mk_params(delta=0.25)
        grid, p0 = self._limit_family(p, n_x=59)
        p1 = solve_corrector(p, BUTTERFLY, grid, p0)
        assert np.all(p1.slice_at(grid.n_t) == 0.0)
        assert np.abs(p1.values[0]).max() > 0.0

    def test_refinement_consistency(self):
        """The at-the-money correction is stable under grid refinement."""
        p = mk_params(delta=0.25)
        grid_c, p0_c = self._limit_family(p)
        p1_c = solve_corrector(p, BUTTERFLY, grid_c, p0_c)
        trial = grid_c.refined(factor_x=2, factor_v=2)
        grid_f = dataclasses.replace(trial, n_t=min_time_steps(p, trial, "bsb"))
        p0_f = solve_bsb_1d(p, BUTTERFLY, grid_f, store_slices=True,
                            cell_average_terminal=True)
        p1_f = solve_corrector(p, BUTTERFLY, grid_f, p0_f)
        coarse = p1_c.value_at(0, 100.0, -1.0)
        fine = p1_f.value_at(0, 100.0, -1.0)
        assert fine != 0.0
        assert abs(coarse - fine) <= 0.35 * abs(fine) + 2e-4

    def test_validation_errors(self):
        """Unsuitable limit surfaces are rejected with clear messages."""
        p = mk_params(delta=0.25)
        grid, p0 = self._limit_family(p, n_x=59)

        grid_full = dataclasses.replace(grid, n_t=min_time_steps(p, grid, "full"))
        full = solve_hjb_2d(p, BUTTERFLY, grid_full, store_slices=True)
        with pytest.raises(ValueError, match="limit_p0"):
            solve_corrector(p, BUTTERFLY, grid_full, full)

        other = dataclasses.replace(grid, n_t=grid.n_t + 1)
        with pytest.raises(ValueError, match="grid"):
            solve_corrector(p, BUTTERFLY, other, p0)

        single = solve_bsb_1d(p, BUTTERFLY, grid, v=-1.0, store_slices=True)
        with pytest.raises(ValueError, match="single-v"):
            solve_corrector(p, BUTTERFLY, grid, single)

        with pytest.raises(ValueError, match="mismatch"):
            solve_corrector(dataclasses.replace(p, sigma=0.7), BUTTERFLY, grid, p0)

        # A limit solve without stored slices gives the same correction.
        thin = solve_bsb_1d(p, BUTTERFLY, grid, cell_average_terminal=True)
        assert np.array_equal(solve_corrector(p, BUTTERFLY, grid, thin).values,
                              solve_corrector(p, BUTTERFLY, grid, p0).values)

    def test_discounting_rejected(self):
        """The correction march is only defined without discounting."""
        p = mk_params(r=0.01, delta=0.25)
        grid, p0 = self._limit_family(p, n_x=59)
        with pytest.raises(ValueError, match="r = 0"):
            solve_corrector(p, BUTTERFLY, grid, p0)


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def solver_cases(draw):
    """Random model, payoff, small grid and extra steps beyond its
    stability bound, with retention and terminal options and a single
    factor level."""
    sigma_min = draw(floats(0.05, 0.3))
    params = ModelParams(
        r=draw(st.sampled_from([0.0, 0.03])), a=draw(floats(-1.0, 1.0)),
        b=draw(floats(0.1, 1.0)), alpha=draw(floats(0.5, 2.0)),
        sigma=draw(floats(0.1, 1.0)), rho=draw(floats(-0.9, 0.9)),
        sigma_min=sigma_min, sigma_max=sigma_min + draw(floats(0.0, 0.3)),
        delta=draw(floats(0.0, 1.0)),
    )
    v_min = draw(floats(-2.0, 0.0))
    grid = GridSpec(
        x_min=draw(st.sampled_from([0.0, 40.0])), x_max=200.0,
        n_x=draw(st.integers(3, 24)), v_min=v_min,
        v_max=v_min + draw(floats(0.2, 1.5)), n_v=draw(st.integers(3, 7)),
        T=draw(floats(0.01, 0.1)), n_t=1,
    )
    legs = draw(st.lists(st.tuples(floats(60.0, 140.0), floats(-2.0, 2.0)),
                         min_size=1, max_size=3, unique_by=lambda leg: leg[0]))
    options = dict(store_slices=draw(st.booleans()),
                   max_kept_slices=draw(st.integers(2, 12)),
                   cell_average_terminal=draw(st.booleans()))
    v = draw(floats(grid.v_min - 0.5, grid.v_max))
    extra = draw(st.integers(0, 3))
    return params, PiecewiseLinearPayoff.from_calls(legs), grid, extra, options, v


def sized(params, grid, kind, extra):
    """``grid`` with ``extra`` steps beyond the stability bound of ``kind``."""
    return dataclasses.replace(
        grid, n_t=min_time_steps(params, grid, kind) + extra
    )


def assert_same_bits(got, want):
    """Equal arrays, with equal sign bits (``-0.0`` against ``0.0``)."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_march(surface, reference):
    values, kept = reference
    assert surface.kept_times == kept
    assert_same_bits(surface.values, values)


def smallest_case(x_min, extra, cell_average=False):
    """A solver case on GridSpec's smallest grid, 3 x 3 interior nodes;
    ``x_min = 40`` extrapolates at both x-edges.  Steps ``extra`` of 0 and
    1 end the march in each of its two swapped buffers."""
    params = ModelParams(r=0.03, a=0.5, b=0.6, alpha=1.0, sigma=0.6, rho=-0.5,
                         sigma_min=0.1, sigma_max=0.3, delta=0.7)
    grid = GridSpec(x_min=x_min, x_max=200.0, n_x=3, v_min=-1.0, v_max=0.0,
                    n_v=3, T=2.0, n_t=1)
    payoff = PiecewiseLinearPayoff.from_calls([(60.0, 1.0), (100.0, -2.0),
                                               (140.0, 1.0)])
    options = dict(store_slices=True, max_kept_slices=12,
                   cell_average_terminal=cell_average)
    return params, payoff, grid, extra, options, -0.5


SMALLEST_CASES = [smallest_case(40.0, 0), smallest_case(40.0, 1),
                  smallest_case(40.0, 1, cell_average=True),
                  smallest_case(0.0, 0)]


def examples(cases, case=lambda c: c):
    """``hypothesis.example`` decorators of the ``case`` of each of ``cases``."""
    def decorate(test):
        for c in cases:
            test = example(case=case(c))(test)
        return test
    return decorate


class TestBufferedMarch:
    """The buffered march gives the allocating march's bits."""

    @settings(max_examples=40, deadline=None)
    @given(case=solver_cases())
    @examples(SMALLEST_CASES)
    def test_equals_the_allocating_march(self, case):
        """Full, limit (per v-node and single-v) and corrector solves equal
        the reference solves bit for bit, kept slices included."""
        p, h, grid, extra, options, v = case
        full = sized(p, grid, "full", extra)
        assert_same_march(solve_hjb_2d(p, h, full, **options),
                          ref.solve_hjb_2d(p, h, full, **options))
        limit = sized(p, grid, "bsb", extra)
        for level in (None, v):
            assert_same_march(solve_bsb_1d(p, h, limit, v=level, **options),
                              ref.solve_bsb_1d(p, h, limit, v=level, **options))
        p = dataclasses.replace(p, r=0.0)
        grid = sized(p, grid, "corrector", extra)
        p0 = solve_bsb_1d(p, h, grid, store_slices=True,
                          max_kept_slices=options["max_kept_slices"] + 1,
                          cell_average_terminal=options["cell_average_terminal"])
        kept = dict(store_slices=options["store_slices"],
                    max_kept_slices=options["max_kept_slices"])
        assert_same_march(solve_corrector(p, h, grid, p0, **kept),
                          ref.solve_corrector(p, h, grid, p0, **kept))


@st.composite
def stacked_cases(draw):
    """Random model, payoff, 1-4 distinct deltas and a small grid sized for
    the largest of them, with retention and terminal options."""
    p, h, grid, extra, options, _ = draw(solver_cases())
    deltas = draw(st.lists(floats(0.0, 1.0), min_size=1, max_size=4,
                           unique=True))
    steps = max(min_time_steps(p.with_delta(d), grid, "full") for d in deltas)
    return p, h, dataclasses.replace(grid, n_t=steps + extra), deltas, options


def smallest_stack(case):
    """A stacked case of two deltas on the grid of ``smallest_case``."""
    p, h, grid, extra, options, _ = case
    deltas = [0.7, 0.05]
    steps = max(min_time_steps(p.with_delta(d), grid, "full") for d in deltas)
    return p, h, dataclasses.replace(grid, n_t=steps + extra), deltas, options


class TestStackedMarch:
    """The same-grid delta solves march as one stack, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(case=stacked_cases())
    @examples(SMALLEST_CASES, smallest_stack)
    def test_equals_each_lone_solve(self, case):
        """Every delta's kept slices equal its own ``solve_hjb_2d``, sign
        bits included, and a zero delta's the limit family's."""
        p, h, grid, deltas, options = case
        deltas = [*deltas, 0.0] if 0.0 not in deltas else deltas
        kept = _kept_indices(grid.n_t, options["store_slices"],
                             options["max_kept_slices"])
        values = _full_values(p, deltas, h, grid, kept,
                              options["cell_average_terminal"])
        assert values.shape == (len(kept), grid.n_x + 2, len(deltas), grid.n_v)
        for j, d in enumerate(deltas):
            alone = solve_hjb_2d(p.with_delta(d), h, grid, **options)
            assert alone.kept_times == kept
            assert_same_bits(values[:, :, j], alone.values)
            if d == 0.0:
                assert_same_bits(values[:, :, j],
                                 solve_bsb_1d(p, h, grid, **options).values)

    @settings(max_examples=40, deadline=None)
    @given(case=solver_cases(), where=st.sampled_from(["min", "node", "max", "any"]),
           u=floats(0.0, 1.0))
    def test_column_limit_equals_the_family_read(self, case, where, u):
        """A sweep's limit read, and the zero member of a stacked delta
        march, equal the family solve's ``value_at``, on nodes and at both
        v-edges."""
        p, h, grid, extra, options, _ = case
        grid = sized(p.with_delta(1.0), grid, "full", extra)
        v0 = {"min": grid.v_min, "max": grid.v_max,
              "node": float(grid.v_nodes[int(u * (grid.n_v - 1))]),
              "any": grid.v_min + u * (grid.v_max - grid.v_min)}[where]
        x0 = grid.x_min + u * (grid.x_max - grid.x_min)
        cell = options["cell_average_terminal"]
        family = solve_bsb_1d(p, h, grid, cell_average_terminal=cell)
        got, p1, _ = _limit_values(p, h, grid, x0, v0, None, cell, False)
        assert type(got) is float and p1 is None
        stacked = np.empty(2)
        _solve_deltas(p, h, grid, x0, v0, [1.0, 0.0], cell, stacked)
        assert np.array_equal(got, family.value_at(0, x0, v0))
        assert np.array_equal(stacked[1], got)


# Large enough that the 2-D march overflows at its first step.
HUGE_BUTTERFLY = PiecewiseLinearPayoff.from_calls(
    [(90.0, 1e306), (100.0, -2e306), (110.0, 1e306)]
)
TOO_HUGE_BUTTERFLY = PiecewiseLinearPayoff.from_calls(
    [(90.0, 1e307), (100.0, -2e307), (110.0, 1e307)]
)


def limit_then_corrector(p, h, grid, p1_params, x0, v0, cell_average):
    """``(P0(0, x0, v0), P1)`` from a stored limit solve and the corrector
    on it, one after the other."""
    p0 = solve_bsb_1d(p, h, grid, store_slices=True,
                      cell_average_terminal=cell_average)
    p1 = solve_corrector(p1_params, h, grid, p0)
    return p0.value_at(0, x0, v0), p1


def outcome(call, *args):
    """``call``'s result, or the type, text and attributes of its error."""
    try:
        with np.errstate(all="ignore"):
            return call(*args)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return type(err), str(err), vars(err)


@st.composite
def fused_cases(draw, n_t):
    """A solver case with ``r = 0``, a point on the grid and the
    corrector's delta, on a grid of ``n_t`` steps (at least the stability
    bound; None for the bound) or on the refined noise-floor grid."""
    p, h, grid, extra, options, _ = draw(solver_cases())
    p = dataclasses.replace(p, r=0.0)
    p1_params = p.with_delta(draw(floats(0.0, 1.0)))
    if n_t == "refined":
        grid = _refined_for_floor(p1_params, grid)
    else:
        grid = dataclasses.replace(
            grid, n_t=max(n_t or 1, min_time_steps(p, grid, "bsb") + extra))
    u, w = draw(floats(0.0, 1.0)), draw(floats(0.0, 1.0))
    x0 = grid.x_min + u * (grid.x_max - grid.x_min)
    v0 = grid.v_min + w * (grid.v_max - grid.v_min)
    return p, h, grid, p1_params, x0, v0, options["cell_average_terminal"]


class TestLimitBesideCorrector:
    """The corrector sweep marches the limit beside the corrector and gets
    the numbers and errors of the two solves one after the other."""

    # The stored limit keeps 601 slices: every one at 128 to 600 steps,
    # every second at 631, every third at 1201 and 1300; P1 reads none.
    @pytest.mark.parametrize("n_t", [None, 128, 599, 600, 631, 1201, 1300,
                                     "refined"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_equals_the_stored_limit_and_corrector(self, n_t, data):
        case = data.draw(fused_cases(n_t))
        got_p0, got_p1 = _limit_and_corrector(*case)
        want_p0, want_p1 = limit_then_corrector(*case)
        assert type(got_p0) is float
        assert np.array_equal(got_p0, want_p0)
        assert (got_p1.kind, got_p1.params, got_p1.kept_times) == (
            want_p1.kind, want_p1.params, want_p1.kept_times)
        assert np.array_equal(got_p1.values, want_p1.values)
        assert not got_p1.values.flags.writeable

    @pytest.mark.parametrize("n_t", [128, 600, 631, 1201])
    def test_p1_does_not_depend_on_the_kept_limit_slices(self, n_t):
        """``solve_corrector`` gives one P1, bit for bit, on a limit solve
        with the default slice budget (every second slice kept at 631
        steps, every third at 1201), with every slice and with none."""
        p = mk_params()
        grid = dataclasses.replace(mk_grid(p, "bsb", x_max=200.0, n_x=39),
                                   n_t=n_t)
        budgets = (dict(store_slices=True),
                   dict(store_slices=True, max_kept_slices=10**9),
                   dict(store_slices=False))
        p1s = [solve_corrector(p, BUTTERFLY, grid,
                               solve_bsb_1d(p, BUTTERFLY, grid, **kw)).values
               for kw in budgets]
        assert np.abs(p1s[0]).max() > 0.0
        for p1 in p1s[1:]:
            assert_same_bits(p1, p1s[0])

    def test_limit_stability_error_comes_first(self):
        p = mk_params(r=0.03)
        grid = mk_grid(p, "bsb", x_max=200.0, n_x=39)
        grid = dataclasses.replace(grid, n_t=grid.n_t - 1)
        case = (p, BUTTERFLY, grid, p, 100.0, -0.5, False)
        got = outcome(_limit_and_corrector, *case)
        assert got[0] is StabilityError
        assert got == outcome(limit_then_corrector, *case)

    @pytest.mark.parametrize("payoff, error", [(BUTTERFLY, ValueError),
                                               (TOO_HUGE_BUTTERFLY, NonFiniteError)])
    def test_limit_overflow_comes_before_the_corrector_checks(self, payoff,
                                                              error):
        """With ``r != 0`` the corrector refuses to run, but only after a
        limit march that overflows has raised."""
        p = mk_params(r=0.03)
        grid = mk_grid(p, "bsb", x_max=200.0, n_x=39)
        case = (p, payoff, grid, p, 100.0, -0.5, False)
        got = outcome(_limit_and_corrector, *case)
        assert got[0] is error
        assert got == outcome(limit_then_corrector, *case)

    @pytest.mark.parametrize("payoff", [BUTTERFLY, TOO_HUGE_BUTTERFLY])
    def test_limit_overflow_wins_over_a_corrector_overflow(self, monkeypatch,
                                                           payoff):
        """The corrector overflows at its first step, before the limit
        march beside it does: the limit's error is still raised, as the
        limit solve raised it before the corrector ran."""
        corrector_march = hjb._corrector_march

        def overflowing(*args):
            march = corrector_march(*args)
            explicit = march.explicit

            def explicit_inf(V, k, E, w):
                explicit(V, k, E, w)
                E[0, 1, 0] = np.inf  # the correction's first interior node

            march.explicit = explicit_inf
            return march

        monkeypatch.setattr(hjb, "_corrector_march", overflowing)
        p = mk_params()
        grid = mk_grid(p, "bsb", x_max=200.0, n_x=39)
        case = (p, payoff, grid, p, 100.0, -0.5, False)
        got = outcome(_limit_and_corrector, *case)
        assert got[0] is NonFiniteError
        assert got == outcome(limit_then_corrector, *case)
        if payoff is BUTTERFLY:
            assert got[2]["time_index"] == grid.n_t - 1
            assert got[2]["node"] == (1, 0)


class TestPriceSolves:
    """``price`` solves ``P_delta`` in a forked job beside ``P0``."""

    @pytest.mark.parametrize("fork", [True, False])
    def test_equal_the_two_solves(self, monkeypatch, fork):
        monkeypatch.setattr(sde, "_fork_ok", lambda: fork)
        p = mk_params(delta=0.25, r=0.02)
        grid = mk_grid(p, "full", x_max=200.0, n_x=39)
        for cell in (False, True):
            got = cli._with_limit(p, BUTTERFLY, grid, cell)
            for surface, solve in zip(got, (solve_hjb_2d, solve_bsb_1d)):
                want = solve(p, BUTTERFLY, grid, cell_average_terminal=cell)
                assert (surface.kind, surface.kept_times) == (want.kind,
                                                              want.kept_times)
                assert_same_bits(surface.values, want.values)
                assert not surface.values.flags.writeable

    @pytest.mark.parametrize("fork", [True, False])
    def test_errors_come_in_the_order_of_the_two_solves(self, monkeypatch,
                                                        fork):
        """Both solves overflow, or take too few steps: ``P_delta``'s error
        is raised, as the two solves one after the other raise it."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: fork)
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "full", x_max=200.0, n_x=39)
        for payoff, g in ((HUGE_BUTTERFLY, grid),
                          (BUTTERFLY, dataclasses.replace(grid, n_t=grid.n_t - 1))):
            got = outcome(cli._with_limit, p, payoff, g, False)
            assert got[0] in (NonFiniteError, StabilityError)
            assert got == outcome(solve_hjb_2d, p, payoff, g)


@st.composite
def affine_cases(draw):
    """A solver case at ``r = 0`` with the affine payoff ``c + s x`` and
    its scale ``|c| + |s| x_max``."""
    p, _, grid, extra, options, v = draw(solver_cases())
    c, s = draw(floats(-100.0, 100.0)), draw(floats(-2.0, 2.0))
    payoff = PiecewiseLinearPayoff(knots=(0.0,), slopes=(s, s), anchor_value=c)
    # A few kept slices, each checked against the payoff.
    options = dict(options, store_slices=True,
                   max_kept_slices=draw(st.integers(3, 12)))
    scale = abs(c) + abs(s) * grid.x_max
    return dataclasses.replace(p, r=0.0), payoff, grid, extra, options, v, scale


class TestAffinePayoff:
    """Without discounting an affine payoff is its own price: the curvature
    it gives every q-sup vanishes, so no march moves it."""

    @settings(max_examples=40, deadline=None)
    @given(case=affine_cases())
    def test_every_kept_slice_is_the_payoff(self, case):
        """The full solve, the limit family and a single-v limit return
        ``h(x_nodes)`` on every kept slice, and the corrector on the
        family is zero, all within ``1e-12`` of the payoff's scale.  The
        corrector is not zero bit for bit: the family's columns can
        differ in their last bits, and its mixed derivative with them."""
        p, h, grid, extra, options, v, scale = case
        want = h(grid.x_nodes)[:, None]
        limit_grid = dataclasses.replace(grid, n_t=extra + max(
            min_time_steps(p, grid, kind) for kind in ("bsb", "corrector")))
        family = solve_bsb_1d(p, h, limit_grid, **options)
        for surface in (solve_hjb_2d(p, h, sized(p, grid, "full", extra),
                                     **options),
                        family, solve_bsb_1d(p, h, limit_grid, v=v, **options)):
            assert surface.n_kept == len(surface.values) >= 2
            assert np.abs(surface.values - want).max() <= 1e-12 * scale
        p1 = solve_corrector(p, h, limit_grid, family, store_slices=True)
        assert np.abs(p1.values).max() <= 1e-12 * scale


def nonfinite_report(solve, *args, **kwargs):
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
        solve(*args, **kwargs)
    return err.value.time_index, err.value.node


class TestNonFinite:
    """An overflow mid-march is reported at the step and node where it
    first appears, as the allocating march reports it."""

    def test_full_solver(self):
        """The tridiagonal solve spreads a non-finite value over its whole
        column, so the first non-finite node is the column's first row."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "full", x_max=200.0, n_x=39)
        got = nonfinite_report(solve_hjb_2d, p, HUGE_BUTTERFLY, grid)
        assert got == (127, (1, 0))
        assert got == nonfinite_report(ref.solve_hjb_2d, p, HUGE_BUTTERFLY, grid)

    def test_full_solver_discounted_from_x_min(self):
        p = mk_params(delta=0.25, r=0.05)
        grid = dataclasses.replace(mk_grid(p, "full", x_max=200.0, n_x=39),
                                   x_min=10.0)
        grid = dataclasses.replace(grid, n_t=min_time_steps(p, grid, "full"))
        got = nonfinite_report(solve_hjb_2d, p, HUGE_BUTTERFLY, grid)
        assert got == (127, (0, 0))
        assert got == nonfinite_report(ref.solve_hjb_2d, p, HUGE_BUTTERFLY, grid)

    @pytest.mark.parametrize("v, expected", [(None, (127, (1, 0))),
                                             (-0.5, (127, (1, 0)))])
    def test_limit_solver(self, v, expected):
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "bsb", x_max=200.0, n_x=39)
        got = nonfinite_report(solve_bsb_1d, p, TOO_HUGE_BUTTERFLY, grid, v=v)
        assert got == expected
        assert got == nonfinite_report(ref.solve_bsb_1d, p, TOO_HUGE_BUTTERFLY,
                                       grid, v=v)

    def test_stacked_deltas(self, monkeypatch):
        """The stacked solve names a delta that went non-finite first, at
        the step and node that delta's own solve reports.  The multiplier
        is made infinite where it is an interior maximizer with ``b >=
        2**512``, a source that depends on delta: on a 1e160 butterfly 0.4
        fails first, at step 90, then 0.2 and 0.1, and 0.05 never."""
        q_argsup = hjb._q_argsup

        def overflowing(aa, bb, lo, hi, out):
            q = q_argsup(aa, bb, lo, hi, out)
            q[(q > lo) & (q < hi) & (bb >= 2.0**512)] = np.inf
            return q

        monkeypatch.setattr(hjb, "_q_argsup", overflowing)
        payoff = PiecewiseLinearPayoff.from_calls(
            [(90.0, 1e160), (100.0, -2e160), (110.0, 1e160)]
        )
        p = mk_params()
        ds = [0.1, 0.4, 0.2, 0.05]
        grid = mk_grid(p.with_delta(1.0), "full", x_max=200.0, n_x=39)
        alone = [nonfinite_report(solve_hjb_2d, p.with_delta(d), payoff, grid)
                 for d in ds[:3]]
        with np.errstate(all="ignore"):
            assert solve_hjb_2d(p.with_delta(0.05), payoff, grid).n_kept == 2
        assert [t for t, _ in alone] == [36, 90, 67]
        first = max(t for t, _ in alone)
        named = next(j for j, (t, _) in enumerate(alone) if t == first)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
            _solve_deltas(p, payoff, grid, 100.0, -0.5, ds, False,
                          np.empty(len(ds)))
        assert named == 1
        assert f"delta={ds[named]!r}" in str(err.value)
        assert (err.value.time_index, err.value.node) == alone[named]

    @pytest.mark.parametrize("v0", [-0.4, -0.1])
    def test_column_limit(self, v0):
        """A sweep's limit read reports the family solve's failure, at its
        full-grid column."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, "bsb", x_max=200.0, n_x=39)
        got = nonfinite_report(_limit_values, p, TOO_HUGE_BUTTERFLY, grid,
                               100.0, v0, None, False, False)
        assert got == (127, (1, 0))
        assert got == nonfinite_report(solve_bsb_1d, p, TOO_HUGE_BUTTERFLY, grid)

    def test_corrector(self):
        """A terminal limit slice that jumps by ``2e305`` along v on one
        row drives the correction non-finite at the first step, through
        the mixed derivative in its source, while the limit beside it stays
        finite: the error names the correction (stack index 1)."""
        p = mk_params(delta=0.25, rho=0.9, sigma=100.0)
        grid = mk_grid(p, "bsb", x_max=200.0, n_x=39, n_v=21)
        values = np.zeros((2, grid.n_x + 2, grid.n_v))
        values[1, 20, :10], values[1, 20, 10:] = 1e305, -1e305
        p0 = PriceSurface(values=values, grid=grid, params=p, kind="limit_p0",
                          kept_times=(0, grid.n_t))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
            solve_corrector(p, BUTTERFLY, grid, p0)
        got = err.value.time_index, err.value.node
        assert (err.value.stack_index, got) == (1, (127, (1, 9)))
        assert got == nonfinite_report(ref.solve_corrector, p, BUTTERFLY, grid, p0)

    @pytest.mark.parametrize("solve, kind, v", [(solve_hjb_2d, "full", None),
                                                (solve_bsb_1d, "bsb", None),
                                                (solve_bsb_1d, "bsb", -0.5)])
    def test_finite_values_whose_sum_overflows(self, solve, kind, v):
        """Every node finite, the slice sum infinite: no error, and the
        affine payoff is carried to rounding."""
        p = mk_params(delta=0.25)
        grid = mk_grid(p, kind, x_max=200.0, n_x=39)
        payoff = PiecewiseLinearPayoff.from_calls([(0.0, 1e305)])
        kwargs = {} if v is None else {"v": v}
        surface = solve(p, payoff, grid, **kwargs)
        with np.errstate(over="ignore"):
            assert np.isinf(surface.values[0].sum())
        expected = np.repeat(payoff(grid.x_nodes)[:, None], grid.n_v, axis=1)
        assert np.allclose(surface.values[0], expected, rtol=1e-12, atol=0.0)
