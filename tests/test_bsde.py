"""Tests for the backward-representation drivers and diagnostics."""

import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvpricer import bsde, rng, sde
from uvpricer.analytic import bs_call
from uvpricer.bsde import (
    BsdeResidualReport,
    DriverSpec,
    driver_consistency,
    martingale_check,
    simulate_2bsde_residual,
)
from uvpricer.hjb import min_time_steps, solve_bsb_1d, solve_hjb_2d
from uvpricer.model import GridSpec, ModelParams, PiecewiseLinearPayoff
from uvpricer.sde import simulate_paths
from uvpricer.surface import WorstCaseControl, _SliceMemo, greeks

from bilinear_reference import gather_read, gather_weights
from forking import assert_no_children, forked, in_process_peak


def mk_params(sigma_min=0.1, sigma_max=0.2, delta=0.0, rho=0.5, r=0.0, sigma=0.5):
    return ModelParams(r=r, a=0.6, b=0.5, alpha=2.0, sigma=sigma, rho=rho,
                       sigma_min=sigma_min, sigma_max=sigma_max, delta=delta)


def mk_grid(params, kind, x_min=80.0, x_max=120.0, n_x=99, v_min=-1.0,
            v_max=0.0, n_v=15, T=0.15):
    trial = GridSpec(x_min=x_min, x_max=x_max, n_x=n_x, v_min=v_min,
                     v_max=v_max, n_v=n_v, T=T, n_t=1)
    return dataclasses.replace(trial, n_t=min_time_steps(params, trial, kind))


def limit_family(params, payoff, **grid_kwargs):
    grid = mk_grid(params, "bsb", **grid_kwargs)
    return solve_bsb_1d(params, payoff, grid, store_slices=True,
                        max_kept_slices=10**9)


class TestDriverSpec:
    def test_vanishes_without_curvature(self):
        """Zero Hessian and gradient give a zero driver for both kinds."""
        p = mk_params(delta=0.3)
        for kind in ("f0", "f_delta"):
            d = DriverSpec(kind=kind, params=p)
            assert d(100.0, -1.0, 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_zero_delta_collapses_to_limit_driver(self):
        """The moving-factor driver at delta=0 equals the limit driver."""
        p = mk_params(delta=0.0)
        f0 = DriverSpec(kind="f0", params=p)
        fd = DriverSpec(kind="f_delta", params=p)
        rs = np.random.default_rng(3)
        x = rs.uniform(1.0, 200.0, 100)
        v, z2, s11, s12, s22 = (rs.uniform(-2.0, 2.0, 100) for _ in range(5))
        assert np.array_equal(fd(x, v, z2, s11, s12, s22),
                              f0(x, v, z2, s11, s12, s22))

    def test_multiplier_follows_curvature_sign(self):
        """sigma_bar flips at the curvature sign, with ties to sigma_max."""
        d = DriverSpec(kind="f0", params=mk_params())
        assert np.array_equal(d.sigma_bar([1.0, 0.0, -1.0]), [0.2, 0.2, 0.1])
        # f0 = -x^2 e^{2v} sigma_bar^2 s11 / 2 at x=10, v=0
        assert d(10.0, 0.0, 0.0, 1.0, 0.0, 0.0) == pytest.approx(-0.5 * 100 * 0.04)
        assert d(10.0, 0.0, 0.0, -1.0, 0.0, 0.0) == pytest.approx(0.5 * 100 * 0.01)

    def test_scalar_and_array_forms(self):
        """Scalar inputs give a float, arrays give arrays."""
        d = DriverSpec(kind="f0", params=mk_params())
        assert isinstance(d(10.0, 0.0, 0.0, 1.0, 0.0, 0.0), float)
        out = d(np.ones(4) * 10.0, np.zeros(4), 0.0, np.ones(4), 0.0, 0.0)
        assert out.shape == (4,)

    def test_unknown_kind_rejected(self):
        """Only f0 and f_delta are valid driver kinds."""
        with pytest.raises(ValueError):
            DriverSpec(kind="f1", params=mk_params())


class TestResidualSimulation:
    def test_constant_payoff_is_exact(self):
        """A constant claim has zero fields and an exactly zero residual."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        h = PiecewiseLinearPayoff(knots=(100.0,), slopes=(0.0, 0.0),
                                  anchor_value=5.0)
        surface = limit_family(p, h, n_x=39, n_v=7)
        rep = simulate_2bsde_residual(surface, p, (100.0, -0.5), 500, 16,
                                      seed=9, payoff=h)
        assert rep.y0_fd == pytest.approx(5.0, abs=1e-12)
        assert rep.terminal_residual_rms == 0.0
        assert rep.y0_mean == pytest.approx(5.0, abs=1e-12)
        assert rep.n_paths_used + rep.n_paths_discarded == 500
        assert rep.n_paths_discarded > 0  # the narrow factor range loses paths

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2**128])
    def test_bad_seed_is_refused(self, seed):
        """A seed Philox cannot take is refused by name."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0), n_x=39,
                               n_v=7)
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_2bsde_residual(surface, p, (100.0, -0.5), 50, 8, seed)

    def test_degenerate_call_residual_small(self):
        """One-vol call: the residual is a few percent of the price."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        h = PiecewiseLinearPayoff.call(100.0)
        surface = limit_family(p, h)
        rep = simulate_2bsde_residual(surface, p, (100.0, -0.5), 20000, 64,
                                      seed=77, payoff=h)
        exact = bs_call(100.0, 100.0, 0.15 * np.exp(-0.5), 0.15)
        assert rep.y0_fd == pytest.approx(exact, rel=5e-3)
        assert rep.terminal_residual_rms / rep.y0_fd < 0.08
        # the implied initial value carries the scheme's O(dt) weak bias
        assert rep.y0_mean == pytest.approx(rep.y0_fd, rel=0.05)

    def test_residual_shrinks_under_refinement(self):
        """Joint grid/step refinement reduces the terminal residual."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        h = PiecewiseLinearPayoff.call(100.0)
        coarse = limit_family(p, h, n_x=49, n_v=9)
        fine = limit_family(p, h, n_x=99, n_v=17)
        rep_c = simulate_2bsde_residual(coarse, p, (100.0, -0.5), 8000, 32,
                                        seed=11, payoff=h)
        rep_f = simulate_2bsde_residual(fine, p, (100.0, -0.5), 8000, 64,
                                        seed=11, payoff=h)
        assert rep_f.terminal_residual_rms < rep_c.terminal_residual_rms
        # the implied-initial-value bias shrinks with the time step too
        assert abs(rep_f.y0_mean - rep_f.y0_fd) < abs(rep_c.y0_mean - rep_c.y0_fd)

    def test_terminal_slice_payoff_matches_explicit(self):
        """On a node-aligned grid the stored terminal slice is the payoff."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        h = PiecewiseLinearPayoff.call(100.0)
        surface = limit_family(p, h, n_x=49, n_v=9)
        a = simulate_2bsde_residual(surface, p, (100.0, -0.5), 4000, 32,
                                    seed=21, payoff=h)
        b = simulate_2bsde_residual(surface, p, (100.0, -0.5), 4000, 32,
                                    seed=21)
        assert b.terminal_residual_rms == pytest.approx(
            a.terminal_residual_rms, rel=1e-9
        )
        assert b.n_paths_used == a.n_paths_used

    def test_chunking_and_determinism(self, monkeypatch):
        """Chunk size never changes the outcome; reruns are identical."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        h = PiecewiseLinearPayoff.call(100.0)
        surface = limit_family(p, h, n_x=49, n_v=9)
        reps = []
        for cells in (sde._CHUNK_CELLS, 2 * 3000 * 16, 2 * 700 * 16):
            monkeypatch.setattr(sde, "_CHUNK_CELLS", cells)  # 3000, 700 paths
            reps.append(simulate_2bsde_residual(surface, p, (100.0, -0.5),
                                                3000, 16, seed=4, payoff=h))
        for rep in reps[1:]:
            assert rep.terminal_residual_rms == pytest.approx(
                reps[0].terminal_residual_rms, rel=1e-12
            )
            assert rep.y0_mean == pytest.approx(reps[0].y0_mean, rel=1e-12)
            assert rep.n_paths_used == reps[0].n_paths_used

    def test_start_point_validation(self):
        """Starts outside the open grid rectangle are rejected."""
        p = mk_params()
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=7)
        for bad in [(120.0, -0.5), (70.0, -0.5), (100.0, 0.0), (100.0, -1.5)]:
            with pytest.raises(ValueError):
                simulate_2bsde_residual(surface, p, bad, 100, 8, seed=1)

    @pytest.mark.parametrize("kind", ["full_delta", "limit_p0"])
    def test_surface_under_other_parameters_is_refused(self, kind):
        """A driver built from other bounds and correlation than the
        surface's is refused, not run into a larger residual."""
        p, h, surface = narrow_surface(kind)
        other = dataclasses.replace(p, sigma_min=0.05, rho=-0.5)
        with pytest.raises(ValueError, match="parameter mismatch"):
            simulate_2bsde_residual(surface, other, (100.0, -0.5), 100, 8,
                                    seed=1, payoff=h)

    def test_delta_may_differ_only_on_the_limit_surface(self):
        """The f0 driver has no delta, so the limit surface runs under any
        delta with the same report; the full_delta surface refuses one."""
        for kind in ("full_delta", "limit_p0"):
            p, h, surface = narrow_surface(kind)
            args = ((100.0, -0.5), 400, 8, 1)
            if kind == "full_delta":
                with pytest.raises(ValueError, match="parameter mismatch"):
                    simulate_2bsde_residual(surface, p.with_delta(0.2), *args)
            else:
                assert simulate_2bsde_residual(
                    surface, p.with_delta(0.0), *args
                ) == simulate_2bsde_residual(surface, p, *args)

    def test_coarse_surface_is_read_between_its_slices(self):
        """A surface of fewer steps than the paths, kept at every step, is
        read linearly in time between the two slices that bracket a path
        step: at a slice's own time its Greeks, midway their mean."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=7)
        n_t = surface.grid.n_t
        at = bsde._greeks_at_steps(surface, 2 * n_t)
        for k in (0, 1, 6, 7, 2 * n_t - 1):
            got, lo, hi = at(k), greeks(surface, k // 2), greeks(surface, k // 2 + 1)
            for f in dataclasses.fields(lo):
                a, b = getattr(lo, f.name), getattr(hi, f.name)
                want = a if k % 2 == 0 else 0.5 * a + 0.5 * b
                assert np.array_equal(getattr(got, f.name), want)
        dense = bsde._greeks_at_steps(surface, n_t)
        assert np.array_equal(dense(7).gamma, greeks(surface, 7).gamma)

    def test_sparse_slices_rejected(self):
        """Slices coarser than the simulation step are refused."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        grid = mk_grid(p, "bsb", n_x=49, n_v=9)
        thin = solve_bsb_1d(p, PiecewiseLinearPayoff.call(100.0), grid,
                            store_slices=True, max_kept_slices=10)
        with pytest.raises(ValueError, match="store_slices"):
            simulate_2bsde_residual(thin, p, (100.0, -0.5), 100, 64, seed=1)

    def test_all_paths_discarded(self):
        """A factor range much narrower than the noise drops every path."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, v_min=-0.55, v_max=-0.45, n_v=5)
        with pytest.raises(RuntimeError, match="left the grid"):
            simulate_2bsde_residual(surface, p, (100.0, -0.5), 200, 16, seed=2)

    def test_report_json_round_trip(self, tmp_path):
        """The JSON export carries every field plus the discard fraction."""
        rep = BsdeResidualReport(y0_fd=1.5, y0_mean=1.49,
                                 terminal_residual_rms=0.02,
                                 n_paths_used=900, n_paths_discarded=100)
        out = tmp_path / "residual.json"
        rep.to_json(out, extra={"config_hash": "deadbeef"})
        doc = json.loads(out.read_text())
        assert doc["y0_fd"] == 1.5
        assert doc["n_paths_discarded"] == 100
        assert doc["discard_fraction"] == pytest.approx(0.1)
        assert doc["config_hash"] == "deadbeef"

    def test_report_validation(self):
        """Negative residuals or counts cannot be constructed."""
        with pytest.raises(ValueError):
            BsdeResidualReport(y0_fd=1.0, y0_mean=1.0,
                               terminal_residual_rms=-0.1,
                               n_paths_used=10, n_paths_discarded=0)
        with pytest.raises(ValueError):
            BsdeResidualReport(y0_fd=1.0, y0_mean=1.0,
                               terminal_residual_rms=0.1,
                               n_paths_used=-1, n_paths_discarded=0)



def gather_residual(surface, params, x_tilde0, n_paths, n_steps, seed,
                    payoff=None, chunk_size=None):
    """The 2BSDE residual as a gather/scatter loop over the alive paths."""
    grid = surface.grid
    x0, v0 = x_tilde0
    driver = DriverSpec(
        kind={"full_delta": "f_delta", "limit_p0": "f0"}[surface.kind],
        params=params,
    )
    dt = grid.T / n_steps
    sqdt = math.sqrt(dt)
    y0_fd = surface.value_at(0, x0, v0)
    terminal = surface.slice_at(grid.n_t)
    fields_at = _SliceMemo(surface, greeks)
    if chunk_size is None:
        chunk_size = max(1, rng._CHUNK_CELLS // (2 * n_steps))
    sum_resid = 0.0
    sum_sq = 0.0
    n_used = 0
    for start, m in rng.chunk_ranges(n_paths, chunk_size):
        z = rng.normal_increments(seed, m, n_steps, first_path=start)
        x = np.full(m, x0)
        v = np.full(m, v0)
        y = np.full(m, y0_fd)
        alive = np.ones(m, dtype=bool)
        for k in range(n_steps):
            g = fields_at(k * dt)
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            xa, va = x[idx], v[idx]
            cell = gather_weights(grid, xa, va)
            z1a = gather_read(g.delta, *cell)
            z2a = gather_read(g.vega, *cell)
            s11 = gather_read(g.gamma, *cell)
            s12 = gather_read(g.vanna, *cell)
            s22 = gather_read(g.vomma, *cell)
            f = driver(xa, va, z2a, s11, s12, s22)
            dw1 = sqdt * z[idx, k, 0]
            dw2 = sqdt * z[idx, k, 1]
            y[idx] += (f + 0.5 * (s11 + s22)) * dt + z1a * dw1 + z2a * dw2
            x[idx] = xa + dw1
            v[idx] = va + dw2
            alive[idx] = (
                (x[idx] >= grid.x_min) & (x[idx] <= grid.x_max)
                & (v[idx] >= grid.v_min) & (v[idx] <= grid.v_max)
            )
        idx = np.flatnonzero(alive)
        if idx.size:
            if payoff is not None:
                h_term = np.asarray(payoff(x[idx]), dtype=float)
            else:
                h_term = gather_read(terminal, *gather_weights(grid, x[idx], v[idx]))
            resid = h_term - y[idx]
            sum_resid += float(resid.sum())
            sum_sq += float((resid**2).sum())
            n_used += idx.size
    return BsdeResidualReport(
        y0_fd=float(y0_fd),
        y0_mean=float(y0_fd + sum_resid / n_used),
        terminal_residual_rms=math.sqrt(sum_sq / n_used),
        n_paths_used=int(n_used),
        n_paths_discarded=int(n_paths - n_used),
    )


@functools.cache
def narrow_surface(kind):
    """A surface on a rectangle narrow enough to lose many paths."""
    p = mk_params(delta=0.3)
    h = PiecewiseLinearPayoff.butterfly(98.0, 100.0, 102.0)
    grid_kwargs = dict(x_min=98.5, x_max=101.5, n_x=23, v_min=-0.8,
                       v_max=-0.2, n_v=9)
    if kind == "full_delta":
        surface = solve_hjb_2d(p, h, mk_grid(p, "full", **grid_kwargs),
                               store_slices=True, max_kept_slices=10**9)
    else:
        surface = limit_family(p, h, **grid_kwargs)
    return p, h, surface


class TestMaskedMarch:
    @pytest.mark.parametrize("kind", ["full_delta", "limit_p0"])
    @pytest.mark.parametrize("chunk_size", [None, 700])
    @pytest.mark.parametrize("with_payoff", [True, False])
    def test_equals_the_gather_scatter_loop(self, monkeypatch, kind, chunk_size,
                                            with_payoff):
        """Marching every path under its alive mask reports exactly what the
        gather/scatter loop over the alive paths reports, with paths lost."""
        p, h, surface = narrow_surface(kind)
        args = (surface, p, (100.0, -0.5), 3000, 16, 13)
        payoff = h if with_payoff else None
        if chunk_size is not None:
            monkeypatch.setattr(sde, "_CHUNK_CELLS", 2 * chunk_size * 16)
        got = simulate_2bsde_residual(*args, payoff=payoff)
        want = gather_residual(*args, payoff=payoff, chunk_size=chunk_size)
        assert got == want
        assert 0.2 < got.discard_fraction < 0.9


def residual_or_none(call, *args, **kwargs):
    """The report, or None when every path left the grid."""
    try:
        return call(*args, **kwargs)
    except RuntimeError as exc:
        assert "every path left the grid" in str(exc)
    except ZeroDivisionError:  # the reference loop's form of that error
        pass
    return None


class TestForkedHalves:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["full_delta", "limit_p0"]),
           with_payoff=st.booleans(),
           n_paths=st.sampled_from([1, 2, 3, 41]) | st.integers(1, 90),
           n_steps=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           chunk_paths=st.sampled_from([None, 7]))
    def test_forked_equals_in_process_and_the_gather_loop(
        self, kind, with_payoff, n_paths, n_steps, seed, chunk_paths
    ):
        """The two halves, forked or in-process, report exactly what the
        gather/scatter loop over the old chunks reports, with paths lost
        on a narrow grid."""
        p, h, surface = narrow_surface(kind)
        args = (surface, p, (100.0, -0.5), n_paths, n_steps, seed)
        payoff = h if with_payoff else None
        with pytest.MonkeyPatch.context() as mp:
            if chunk_paths is not None:
                mp.setattr(sde, "_CHUNK_CELLS", 2 * chunk_paths * n_steps)
            (got, n_forks), (alone, _) = (
                forked(fork, residual_or_none, simulate_2bsde_residual, *args,
                       payoff=payoff)
                for fork in (True, False)
            )
        assert n_forks == int(n_paths >= 2)
        assert_no_children()
        want = residual_or_none(gather_residual, *args, payoff=payoff,
                                chunk_size=chunk_paths)
        assert got == alone == want


class TestMartingaleCheck:
    def test_discounting_rejected(self):
        """The drift diagnostic is only defined without discounting."""
        p = mk_params(r=0.02)
        surface = limit_family(mk_params(), PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=7)
        with pytest.raises(ValueError, match="r = 0"):
            martingale_check(surface, p, 0.15, 100.0, -0.5, 100, 8, seed=1)

    @pytest.mark.parametrize("q", ["fixed", "worst-case"])
    def test_one_path_has_zero_standard_error(self, q):
        """One path gives a zero standard error, as estimate_moment does,
        and no RuntimeWarning."""
        p = mk_params()
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=9)
        policy = 0.15 if q == "fixed" else WorstCaseControl(surface, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = martingale_check(surface, p, policy, 100.0, -0.5, 1, 8, seed=1)
        assert rep.std_error == 0.0
        assert math.isfinite(rep.drift_estimate)

    def test_optimal_control_drift_vanishes(self):
        """Under the maximizing control the surface value is a martingale."""
        p = mk_params()
        h = PiecewiseLinearPayoff.call(100.0)
        surface = limit_family(p, h, x_min=0.0, x_max=300.0, n_x=149)
        rep = martingale_check(surface, p, 0.2, 100.0, -0.5, 20000, 64, seed=5)
        assert abs(rep.drift_estimate) < 3.0 * rep.std_error + 0.01 * surface.value_at(
            0, 100.0, -0.5
        )
        assert rep.policy_tag == "fixed q=0.2"

    def test_suboptimal_control_drifts_down(self):
        """A convex claim run at sigma_min loses the full vol gap."""
        p = mk_params()
        h = PiecewiseLinearPayoff.call(100.0)
        surface = limit_family(p, h, x_min=0.0, x_max=300.0, n_x=149)
        rep = martingale_check(surface, p, 0.1, 100.0, -0.5, 20000, 64, seed=6)
        gap = bs_call(100.0, 100.0, 0.2 * np.exp(-0.5), 0.15) - bs_call(
            100.0, 100.0, 0.1 * np.exp(-0.5), 0.15
        )
        assert rep.drift_estimate < -3.0 * rep.std_error
        assert rep.drift_estimate == pytest.approx(-gap, rel=0.1)

    def test_supermartingale_ordering(self):
        """No fixed control beats the worst-case field beyond noise."""
        p = mk_params()
        h = PiecewiseLinearPayoff.call(100.0)
        surface = limit_family(p, h, x_min=0.0, x_max=300.0, n_x=149)
        policy = WorstCaseControl(surface, p)
        ref = martingale_check(surface, p, policy, 100.0, -0.5, 8000, 32, seed=8)
        assert ref.policy_tag == "worst-case field"
        for q in np.linspace(0.1, 0.2, 5):
            rep = martingale_check(surface, p, float(q), 100.0, -0.5, 8000, 32,
                                   seed=8)
            assert rep.drift_estimate <= ref.drift_estimate + 3.0 * (
                rep.std_error + ref.std_error
            )


    @pytest.mark.parametrize("q", [0.15, np.float32(0.15), np.int64(1),
                                   "worst-case"])
    def test_terminal_state_of_the_batch(self, q):
        """The report reads exactly the terminal column of the
        simulate_paths batch under the same control, and its tag."""
        p = mk_params(sigma_max=1.0)
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=9)
        if q == "worst-case":
            q = WorstCaseControl(surface, p)
        rep = martingale_check(surface, p, q, 100.0, -0.5, 301, 8, seed=4)
        batch = simulate_paths(p, 100.0, -0.5, q, 301, 8, surface.grid.T, 4)
        m_term = surface.value_at(surface.grid.n_t, batch.x_paths[:, -1],
                                  batch.v_paths[:, -1])
        m_term = m_term - surface.value_at(0, 100.0, -0.5)
        assert rep.drift_estimate == float(m_term.mean())
        assert rep.std_error == float(m_term.std(ddof=1) / math.sqrt(301))
        assert rep.policy_tag == batch.control_tag

    def test_policy_run_peaks_below_one_path_array(self, monkeypatch):
        """Only the terminal state is kept: the traced peak stays below
        one ``(n_steps + 1, n_paths)`` float64 array."""
        p = mk_params()
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=9)
        n_paths, n_steps = 2000, 50
        args = (surface, p, WorstCaseControl(surface, p), 100.0, -0.5, n_paths,
                n_steps, 6)
        want = martingale_check(*args)  # also loads scipy
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 64 * n_steps)
        got, peak = in_process_peak(martingale_check, *args)
        assert got == want
        assert peak < (n_steps + 1) * n_paths * 8

    def test_untagged_policy(self):
        """A policy object without a tag is reported by its class name."""
        p = mk_params()
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=7)

        class Untagged:
            def values(self, t, x, v):
                return np.full_like(x, 0.15)

        rep = martingale_check(surface, p, Untagged(), 100.0, -0.5, 200, 8, seed=1)
        fixed = martingale_check(surface, p, 0.15, 100.0, -0.5, 200, 8, seed=1)
        assert rep.policy_tag == "Untagged"
        assert (rep.drift_estimate, rep.std_error) == tuple(fixed)


class TestDriverConsistency:
    def test_limit_family_gap_is_first_order_in_time(self):
        """With every slice kept, the limit driver misses the march's one-
        step difference by the step's time error: the gap halves with the
        step (the implicit step is no one-step Euler relation, so the gap
        is not zero as it was for the explicit march)."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        grid = mk_grid(p, "bsb", n_x=49, n_v=9)
        gaps = []
        for n_t in (128, 256, 512):
            surface = solve_bsb_1d(p, PiecewiseLinearPayoff.call(100.0),
                                   dataclasses.replace(grid, n_t=n_t),
                                   store_slices=True, max_kept_slices=10**9)
            gaps.append(driver_consistency(surface, p)[1].mean())
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.8 < coarse / fine < 2.2

    def test_gap_shrinks_under_refinement(self):
        """The moving-factor consistency gap decreases with the mesh: half
        the space steps and a quarter of the time step."""
        p = mk_params(delta=0.25)
        h = PiecewiseLinearPayoff.call(100.0)

        def solve(n_x, n_v, n_t):
            grid = dataclasses.replace(mk_grid(p, "full", n_x=n_x, n_v=n_v),
                                       n_t=n_t)
            return solve_hjb_2d(p, h, grid, store_slices=True,
                                max_kept_slices=10**9)

        _, rms_c = driver_consistency(solve(49, 9, 128), p)
        _, rms_f = driver_consistency(solve(99, 17, 512), p)
        assert rms_f.mean() < rms_c.mean()

    def test_surface_under_other_parameters_is_refused(self):
        """A driver built from other parameters than the surface's is
        refused, not run into a larger gap; on the limit surface, whose f0
        driver has no delta, delta may differ."""
        p = mk_params()
        h = PiecewiseLinearPayoff.call(100.0)
        limit = limit_family(p, h, n_x=39, n_v=7)
        full = solve_hjb_2d(p.with_delta(0.3), h,
                            mk_grid(p.with_delta(0.3), "full", n_x=39, n_v=7),
                            store_slices=True, max_kept_slices=10**9)
        wide = dataclasses.replace(p, sigma_min=0.05, sigma_max=0.4)
        for surface, other in ((limit, wide), (full, wide.with_delta(0.3)),
                               (full, p.with_delta(0.2))):
            with pytest.raises(ValueError, match="parameter mismatch"):
                driver_consistency(surface, other)
        got = driver_consistency(limit, p.with_delta(0.7))
        want = driver_consistency(limit, p)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_profile_shape(self):
        """One RMS entry per retained slice pair, timed at the later slice."""
        p = mk_params(sigma_min=0.15, sigma_max=0.15)
        surface = limit_family(p, PiecewiseLinearPayoff.call(100.0),
                               n_x=39, n_v=7)
        t, rms = driver_consistency(surface, p)
        assert len(t) == len(rms) == surface.n_kept - 1
        assert t[-1] == pytest.approx(surface.grid.T)
        assert np.all(rms >= 0.0)
