"""Tests for path simulation, moment estimators, and the closed-form MGF."""

import dataclasses
import functools
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvpricer import cli, convergence, sde
from uvpricer.convergence import run_delta_sweep
from uvpricer.errors import PoleError
from uvpricer.hjb import min_time_steps, solve_hjb_2d
from uvpricer.model import GridSpec, ModelParams, PiecewiseLinearPayoff
from uvpricer.rng import normal_increments
from uvpricer.sde import (
    CoupledGap,
    coupled_payoff_gap,
    estimate_moment,
    mgf_closed_form,
    mgf_components,
    simulate_paths,
)
from uvpricer.surface import WorstCaseControl

import gap_reference
from forking import assert_no_children, forked, in_process_peak


def make_params(**overrides):
    base = dict(
        r=0.0, a=0.6, b=0.5, alpha=2.0, sigma=0.5, rho=0.5,
        sigma_min=0.1, sigma_max=0.2, delta=0.5,
    )
    base.update(overrides)
    return ModelParams(**base)


class TestSimulatePaths:
    def test_initial_columns(self):
        """Every path starts at the requested initial state."""
        batch = simulate_paths(make_params(), 100.0, -1.0, 0.15, 50, 10, 0.15, seed=1)
        assert np.all(batch.x_paths[:, 0] == 100.0)
        assert np.all(batch.v_paths[:, 0] == -1.0)
        assert batch.x_paths.shape == (50, 11)

    def test_delta_zero_freezes_factor(self):
        """With delta = 0 the factor stays exactly at v0 on every path."""
        batch = simulate_paths(
            make_params(delta=0.0), 100.0, -0.7, 0.2, 64, 16, 0.15, seed=3
        )
        assert np.all(batch.v_paths == -0.7)

    def test_paths_stay_positive(self):
        """Log-space stepping keeps the asset strictly positive."""
        batch = simulate_paths(
            make_params(delta=1.0, sigma_max=0.2), 5.0, 0.4, 0.2, 200, 40, 1.0, seed=5
        )
        assert np.all(batch.x_paths > 0.0)

    def test_deterministic_and_chunk_independent(self, monkeypatch):
        """Seed fixes the batch bit-for-bit regardless of chunk schedule."""
        kwargs = dict(x0=100.0, v0=-1.0, q_policy=0.15, n_paths=37,
                      n_steps=11, T=0.15, seed=11)
        a = simulate_paths(make_params(), **kwargs)
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 4 * 5 * 11)  # 5-path chunks
        b = simulate_paths(make_params(), **kwargs)
        assert np.array_equal(a.x_paths, b.x_paths)
        assert np.array_equal(a.v_paths, b.v_paths)

    def test_frozen_factor_matches_exact_gbm(self):
        """At delta = 0 the log-Euler terminal value equals the exact GBM map."""
        p = make_params(delta=0.0, r=0.02)
        q, x0, v0, T, n = 0.2, 80.0, -0.5, 0.5, 16
        batch = simulate_paths(p, x0, v0, q, 25, n, T, seed=21)
        z = normal_increments(21, 25, n)
        w_T = math.sqrt(T / n) * z[:, :, 0].sum(axis=1)
        vol = q * math.exp(v0)
        exact = x0 * np.exp((p.r - 0.5 * vol**2) * T + vol * w_T)
        assert batch.x_paths[:, -1] == pytest.approx(exact, rel=1e-12)

    def test_martingale_mean_under_fixed_vol(self):
        """With r = 0 the sample mean of X_T sits within 3 SE of x0."""
        p = make_params(sigma_min=0.15, sigma_max=0.15, delta=0.5)
        batch = simulate_paths(p, 100.0, -1.0, 0.15, 20000, 25, 0.15, seed=42)
        report = estimate_moment(batch, which="X", k=1)
        assert abs(report.estimate - 100.0) <= 3.0 * report.std_error

    def test_perfect_correlation_gives_identical_increments(self):
        """rho = 1 makes both Brownian increment streams coincide."""
        p = make_params(rho=1.0, delta=0.8)
        q, x0, v0, T, n = 0.2, 100.0, -1.0, 0.3, 12
        batch = simulate_paths(p, x0, v0, q, 30, n, T, seed=7)
        dt = T / n
        v = batch.v_paths
        x = batch.x_paths
        drift_v = p.delta * (p.a - p.b * np.exp(p.alpha * v[:, :-1]))
        dw2 = (v[:, 1:] - v[:, :-1] - drift_v * dt) / (math.sqrt(p.delta) * p.sigma)
        ev = np.exp(v[:, :-1])
        dlog = np.log(x[:, 1:]) - np.log(x[:, :-1])
        dw1 = (dlog - (p.r - 0.5 * q**2 * ev**2) * dt) / (q * ev)
        assert dw1 == pytest.approx(dw2, abs=1e-10)

    def test_empirical_increment_correlation(self):
        """Recovered increment streams correlate at rho within MC tolerance."""
        rho = 0.5
        p = make_params(rho=rho, delta=1.0)
        q, T, n = 0.15, 0.3, 16
        batch = simulate_paths(p, 100.0, -1.0, q, 4000, n, T, seed=13)
        dt = T / n
        v = batch.v_paths
        drift_v = p.delta * (p.a - p.b * np.exp(p.alpha * v[:, :-1]))
        dw2 = (v[:, 1:] - v[:, :-1] - drift_v * dt) / (math.sqrt(p.delta) * p.sigma)
        ev = np.exp(v[:, :-1])
        dlog = np.log(batch.x_paths[:, 1:]) - np.log(batch.x_paths[:, :-1])
        dw1 = (dlog - (p.r - 0.5 * q**2 * ev**2) * dt) / (q * ev)
        corr = np.corrcoef(dw1.ravel(), dw2.ravel())[0, 1]
        assert corr == pytest.approx(rho, abs=4.0 / math.sqrt(dw1.size))

    def test_policy_object_is_queried(self):
        """A state-dependent policy is evaluated with (t, x, v) each step."""

        class Extremes:
            tag = "bang-bang on v"

            def values(self, t, x, v):
                assert x.shape == v.shape
                return np.where(v < -1.0, 0.2, 0.1)

        batch = simulate_paths(make_params(), 100.0, -1.0, Extremes(), 10, 5, 0.1, seed=2)
        assert batch.control_tag == "bang-bang on v"

    @pytest.mark.parametrize(
        "q", [np.float32(0.15), np.float64(0.15), np.int64(1), np.array(0.15)]
    )
    def test_numpy_real_multipliers(self, q):
        """A numpy scalar or 0-d array runs as the fixed multiplier
        ``float(q)``, as in coupled_payoff_gap."""
        params = make_params(sigma_max=1.0)
        got = simulate_paths(params, 100.0, -1.0, q, 20, 4, 0.1, seed=3)
        want = simulate_paths(params, 100.0, -1.0, float(q), 20, 4, 0.1, seed=3)
        assert got.control_tag == want.control_tag == f"fixed q={float(q)}"
        assert np.array_equal(got.x_paths, want.x_paths)
        assert np.array_equal(got.v_paths, want.v_paths)

    @pytest.mark.parametrize(
        "kwargs, exc",
        [
            (dict(q_policy=0.05), ValueError),
            (dict(q_policy=0.25), ValueError),
            (dict(q_policy="mid"), TypeError),
            (dict(x0=0.0), ValueError),
            (dict(x0=np.nan), ValueError),
            (dict(v0=np.inf), ValueError),
            (dict(n_paths=0), ValueError),
            (dict(n_steps=0), ValueError),
            (dict(T=0.0), ValueError),
            (dict(q_policy=np.array([0.15])), TypeError),
            (dict(T=np.inf), ValueError),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs, exc):
        """Out-of-interval multipliers and bad state/sizes raise."""
        base = dict(x0=100.0, v0=-1.0, q_policy=0.15, n_paths=4, n_steps=4,
                    T=0.1, seed=0)
        base.update(kwargs)
        with pytest.raises(exc):
            simulate_paths(make_params(), **base)


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, True, -1, 2**128])
    def test_bad_seed_is_refused_before_the_march(self, seed):
        """A float, a bool, a negative seed or one of 2**128 or more is
        refused by name, not run as another seed or failing in numpy."""
        p = make_params()
        calls = (
            lambda: simulate_paths(p, 100.0, -1.0, 0.15, 8, 4, 0.1, seed),
            lambda: simulate_paths(p, 100.0, -1.0, _Extremes(), 8, 4, 0.1,
                                   seed),
            lambda: coupled_payoff_gap(p, TestCoupledPayoffGap.PAYOFF, 100.0,
                                       -1.0, 0.15, 8, 4, 0.1, seed),
        )
        for call in calls:
            with pytest.raises(ValueError, match="seed must be an integer"):
                call()

    def test_numpy_integer_seed_runs_as_its_value(self):
        """A numpy integer seed runs as that integer."""
        p = make_params()
        got = simulate_paths(p, 100.0, -1.0, 0.15, 8, 4, 0.1, np.int64(11))
        want = simulate_paths(p, 100.0, -1.0, 0.15, 8, 4, 0.1, 11)
        assert np.array_equal(got.x_paths, want.x_paths)
        assert got.seed == 11


class TestPathEngine:
    PAYOFF = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)

    @staticmethod
    def run_both(params, n_paths, n_steps, seed):
        batch = simulate_paths(params, 100.0, -1.0, 0.15, n_paths, n_steps,
                               0.15, seed)
        gap = coupled_payoff_gap(params, TestPathEngine.PAYOFF, 100.0, -1.0,
                                 0.15, n_paths, n_steps, 0.15, seed)
        return batch, gap

    @settings(max_examples=25, deadline=None)
    @given(
        n_paths=st.integers(1, 300),
        n_steps=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.integers(1, 300),
        budget=st.integers(1, 2000),
        delta=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_chunking_and_workers_do_not_change_results(
        self, n_paths, n_steps, seed, chunk, budget, delta
    ):
        """Fixed-q batches and gaps are bit-identical for any chunking, any
        chunk budget and a one-worker pool, and the gap is the two-asset
        loop's report field for field."""
        params = make_params(delta=delta)
        ref_batch, ref_gap = self.run_both(params, n_paths, n_steps, seed)
        assert ref_gap == gap_reference.coupled_payoff_gap(
            params, self.PAYOFF, 100.0, -1.0, 0.15, n_paths, n_steps, 0.15, seed)
        runs = []
        # A budget of 4 * c * n_steps cells makes chunks of about c paths.
        with pytest.MonkeyPatch.context() as mp:
            for cells in (4 * chunk * n_steps, budget):
                mp.setattr(sde, "_CHUNK_CELLS", cells)
                runs.append(self.run_both(params, n_paths, n_steps, seed))
            mp.setattr(sde, "_WORKERS", 1)
            for cells in (budget, 4 * chunk * n_steps, 4 * n_paths * n_steps):
                mp.setattr(sde, "_CHUNK_CELLS", cells)
                runs.append(self.run_both(params, n_paths, n_steps, seed))
        for batch, gap in runs:
            assert np.array_equal(batch.x_paths, ref_batch.x_paths)
            assert np.array_equal(batch.v_paths, ref_batch.v_paths)
            assert gap == ref_gap

    @settings(max_examples=15, deadline=None)
    @given(
        n_small=st.integers(1, 120),
        extra=st.integers(1, 200),
        n_steps=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_extension_keeps_leading_paths(self, n_small, extra, n_steps, seed):
        """Rows ``:n`` of a larger batch are the smaller batch."""
        params = make_params()
        small = simulate_paths(params, 100.0, -1.0, 0.15, n_small, n_steps, 0.15, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde, "_CHUNK_CELLS", 4 * 7 * n_steps)  # 7-path chunks
            large = simulate_paths(params, 100.0, -1.0, 0.15, n_small + extra,
                                   n_steps, 0.15, seed)
        assert np.array_equal(large.x_paths[:n_small], small.x_paths)
        assert np.array_equal(large.v_paths[:n_small], small.v_paths)

    def test_balanced_chunks_are_a_multiple_of_the_workers(self, monkeypatch):
        """Fixed-q chunks come in multiples of the worker count, no larger
        than a quarter of the chunk budget and at most one path apart;
        sequential chunks hold the budget, the last one the rest."""
        n_paths, n_steps = 40_000, 150
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(sde, "_WORKERS", workers)
            chunks = sde._chunks(n_paths, n_steps, parallel=True)
            counts = [count for _, count in chunks]
            assert len(chunks) % workers == 0
            assert sum(counts) == n_paths
            assert max(counts) * n_steps <= sde._CHUNK_CELLS // 4
            assert max(counts) - min(counts) <= 1
        size = sde._CHUNK_CELLS // n_steps
        assert sde._chunks(n_paths, n_steps, parallel=False) == [
            (0, size), (size, n_paths - size),
        ]

    @pytest.mark.parametrize("policy", ["fixed", "object"])
    def test_path_arrays_are_c_contiguous_and_read_only(self, monkeypatch, policy):
        """Both path arrays are C-ordered and refuse writes."""
        q = 0.15 if policy == "fixed" else _Extremes()
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 25 * 9)  # several chunks
        batch = simulate_paths(make_params(), 100.0, -1.0, q, 60, 9, 0.1, seed=3)
        for arr in (batch.x_paths, batch.v_paths):
            assert arr.flags.c_contiguous
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_oversubscribed_pool_matches_sequential_run(self, monkeypatch):
        """More workers than cores and a tiny switch interval leave every
        path and gap sample where a one-worker run puts it; each run's
        pool has that many threads and is gone when the run returns."""
        params = make_params()
        kwargs = dict(n_paths=400, n_steps=9, seed=77)
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 4 * 13 * 9)  # 13-path chunks
        monkeypatch.setattr(sde, "_WORKERS", 1)
        ref_batch, ref_gap = self.run_both(params, **kwargs)
        workers = 2 * len(os.sched_getaffinity(0)) + 1
        monkeypatch.setattr(sde, "_WORKERS", workers)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(max_workers)

        monkeypatch.setattr(sde, "ThreadPoolExecutor", RecordingPool)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                batch, gap = self.run_both(params, **kwargs)
                assert np.array_equal(batch.x_paths, ref_batch.x_paths)
                assert np.array_equal(batch.v_paths, ref_batch.v_paths)
                assert gap == ref_gap
        finally:
            sys.setswitchinterval(interval)
        assert pools == [workers] * 6
        assert threading.active_count() == threads

    @pytest.mark.parametrize("parallel, chunk_paths", [(True, None), (True, 13),
                                                       (False, 13), (False, None)])
    def test_increments_and_workspaces(self, monkeypatch, parallel, chunk_paths):
        """Every chunk's increments equal the two-expression form
        ``sq_dt z0`` and ``rho dw1 + rho_perp sq_dt z1`` bit for bit (at
        ``rho = 0``, ``dw2`` is ``sq_dt z1``), and are drawn into at most one
        reused workspace per worker."""
        n_paths, n_steps, dt, seed = 203, 7, 0.02, 8
        bases = []

        def recording(*args, out=None, **kwargs):
            assert out is not None
            bases.append(out.base if out.base is not None else out)
            return normal_increments(*args, out=out, **kwargs)

        monkeypatch.setattr(sde, "normal_increments", recording)
        cells = 60 if chunk_paths is None else (4 if parallel else 1) * chunk_paths
        monkeypatch.setattr(sde, "_CHUNK_CELLS", cells * n_steps)
        sq_dt = math.sqrt(dt)
        for rho in (-0.3, 0.0):
            bases.clear()
            seen = {}

            def march(first, count, dw1, dw2):
                seen[first] = (count, dw1.copy(), dw2.copy())

            sde._march_chunks(rho, n_paths, n_steps, dt, seed, parallel, march)
            assert sum(count for count, _, _ in seen.values()) == n_paths
            assert len(seen) > 1
            if chunk_paths is not None:
                assert max(count for count, _, _ in seen.values()) <= chunk_paths
            assert len({id(b) for b in bases}) <= (sde._WORKERS if parallel else 1)
            rho_perp = math.sqrt(1.0 - rho**2)
            for first, (count, dw1, dw2) in seen.items():
                z = normal_increments(seed, count, n_steps, first_path=first)
                want1 = sq_dt * z[:, :, 0].T
                want2 = rho * want1 + rho_perp * sq_dt * z[:, :, 1].T
                assert np.array_equal(dw1, want1)
                assert np.array_equal(dw2, want2)
                if rho == 0.0:
                    assert np.array_equal(dw2, sq_dt * z[:, :, 1].T)

    def test_policy_is_queried_on_the_calling_thread(self, monkeypatch):
        """A policy object never runs on the pool, even over many chunks."""
        policy = _Extremes()
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 5 * 4)  # 5-path chunks
        simulate_paths(make_params(), 100.0, -1.0, policy, 50, 4, 0.1, seed=2)
        assert policy.threads == {threading.get_ident()}


class _Extremes:
    """Bang-bang policy on the factor that records the calling threads."""

    tag = "bang-bang on v"

    def __init__(self):
        self.threads = set()

    def values(self, t, x, v):
        self.threads.add(threading.get_ident())
        return np.where(v < -1.0, 0.2, 0.1)


def old_policy_loop(params, x0, v0, policy, n_paths, n_steps, T, seed):
    """Paths under a policy object as one step-major loop over every path,
    the policy reading ``np.exp(log_x)`` at every step."""
    dt = T / n_steps
    sq_dt = math.sqrt(dt)
    z = normal_increments(seed, n_paths, n_steps)
    dw1 = sq_dt * z[:, :, 0].T
    dw2 = (math.sqrt(1.0 - params.rho**2) * sq_dt * z[:, :, 1].T
           + params.rho * dw1)
    log_x = np.full(n_paths, math.log(x0))
    v = np.full(n_paths, float(v0))
    xs, vs = [np.full(n_paths, x0)], [v]
    for k in range(n_steps):
        q = policy.values(k * dt, np.exp(log_x), v)
        log_x = log_x + sde._log_x_step(params, q, np.exp(v), dt, dw1[k])
        v = sde._factor_step(params, v, dt, dw2[k])
        xs.append(np.exp(log_x))
        vs.append(v)
    return np.stack(xs, axis=1), np.stack(vs, axis=1)


@functools.cache
def worst_case_surface():
    """A small moving-factor surface with every slice kept."""
    params = make_params()
    payoff = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)
    trial = GridSpec(x_min=60.0, x_max=140.0, n_x=39, v_min=-1.6, v_max=-0.4,
                     n_v=7, T=0.1, n_t=1)
    grid = dataclasses.replace(trial, n_t=min_time_steps(params, trial, "full"))
    return params, solve_hjb_2d(params, payoff, grid, store_slices=True,
                                max_kept_slices=10**9)


# Path counts of 1, 2, odd, and more than one old chunk of paths.
PATH_COUNTS = st.sampled_from([1, 2, 3, 41]) | st.integers(1, 90)


class TestPathHalves:
    """Policy runs split their paths into two halves, the second in a
    forked child, and give the in-process batch bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(n_paths=PATH_COUNTS, n_steps=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), chunk_paths=st.sampled_from([None, 7]))
    def test_forked_equals_in_process_and_the_old_loop(self, n_paths, n_steps,
                                                       seed, chunk_paths):
        params, surface = worst_case_surface()
        args = (params, 100.0, -1.0)
        tail = (n_paths, n_steps, surface.grid.T, seed)
        with pytest.MonkeyPatch.context() as mp:
            if chunk_paths is not None:
                mp.setattr(sde, "_CHUNK_CELLS", chunk_paths * n_steps)
            got, n_forks = forked(True, simulate_paths, *args,
                                  WorstCaseControl(surface, params), *tail)
            alone, no_forks = forked(False, simulate_paths, *args,
                                     WorstCaseControl(surface, params), *tail)
        assert (n_forks, no_forks) == (int(n_paths >= 2), 0)
        assert_no_children()
        want_x, want_v = old_policy_loop(*args, WorstCaseControl(surface, params),
                                         *tail)
        for batch in (got, alone):
            assert np.array_equal(batch.x_paths, want_x)
            assert np.array_equal(batch.v_paths, want_v)
            assert batch.x_paths.flags.c_contiguous
            assert not batch.x_paths.flags.writeable

    @pytest.mark.parametrize("keep", [0, 3, 6, 9])
    def test_kept_paths_and_terminal_states(self, keep):
        """``sde._simulate`` stores only the first ``keep`` paths whole, and
        every path's terminal state, forked or in-process, with the bits
        of the whole batch."""
        params, surface = worst_case_surface()
        args = (params, 100.0, -1.0)
        tail = (9, 5, 0.1, 4)
        whole = simulate_paths(*args, WorstCaseControl(surface, params), *tail)
        for fork in (True, False):
            (head, x_end, v_end), n_forks = forked(
                fork, sde._simulate, *args, WorstCaseControl(surface, params),
                *tail, keep)
            assert n_forks == int(fork)
            assert np.array_equal(head.x_paths, whole.x_paths[:keep])
            assert np.array_equal(head.v_paths, whole.v_paths[:keep])
            assert np.array_equal(x_end, whole.x_paths[:, -1])
            assert np.array_equal(v_end, whole.v_paths[:, -1])

    def test_policy_sees_the_stored_asset_values(self):
        """The policy reads exactly what the old loop passed it: the
        stored ``exp(log_x)`` row, and ``exp(log x0)`` (not ``x0``) at the
        first step."""
        params, surface = worst_case_surface()
        assert math.exp(math.log(100.0)) != 100.0

        class Recording(WorstCaseControl):
            def __init__(self, *args):
                super().__init__(*args)
                self.seen = []

            def values(self, t, x, v):
                self.seen.append(np.array(x))
                return super().values(t, x, v)

        got, want = Recording(surface, params), Recording(surface, params)
        tail = (9, 5, 0.1, 4)
        forked(False, simulate_paths, params, 100.0, -1.0, got, *tail)
        old_policy_loop(params, 100.0, -1.0, want, *tail)
        assert len(got.seen) == len(want.seen) == 5
        for a, b in zip(got.seen, want.seen):
            assert np.array_equal(a, b)

    def test_killed_child_is_redone_in_process(self):
        """A child SIGKILLed mid-march gives the in-process batch; the
        parent then marches the child's half itself."""
        params, surface = worst_case_surface()
        parent = os.getpid()
        calls = []

        class Dying(WorstCaseControl):
            def values(self, t, x, v):
                calls.append(x.size)
                if os.getpid() != parent and len(calls) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().values(t, x, v)

        args = (params, 100.0, -1.0, Dying(surface, params), 301, 6, 0.1, 5)
        got, n_forks = forked(True, simulate_paths, *args)
        assert n_forks == 1
        assert_no_children()
        assert calls == [150] * 6 + [151] * 6
        want, _ = forked(False, simulate_paths, *args)
        assert np.array_equal(got.x_paths, want.x_paths)
        assert np.array_equal(got.v_paths, want.v_paths)

    def test_child_error_reaches_the_caller(self):
        """An error in the child's half is raised by the in-process redo,
        with its type and message, and no child is left."""
        class FailingHalf(_Extremes):
            def values(self, t, x, v):
                if x.size == 21:  # paths 20 .. 40
                    raise ArithmeticError("second half failed")
                return super().values(t, x, v)

        with pytest.raises(ArithmeticError, match="second half failed"):
            forked(True, simulate_paths, make_params(), 100.0, -1.0,
                   FailingHalf(), 41, 4, 0.1, 2)
        assert_no_children()

    def test_error_in_the_parents_half_kills_the_child(self):
        """The parent's half raises while the child's half is still
        running: the error is raised at once and the child is killed and
        reaped."""
        parent = os.getpid()

        class Slow(_Extremes):
            def values(self, t, x, v):
                if os.getpid() != parent:
                    time.sleep(60.0)
                elif t > 0.0:
                    raise ArithmeticError("first half failed")
                return super().values(t, x, v)

        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="first half failed"):
            forked(True, simulate_paths, make_params(), 100.0, -1.0, Slow(),
                   40, 4, 0.1, 2)
        assert time.perf_counter() - start < 30.0
        assert_no_children()

    def test_fixed_q_runs_do_not_fork(self):
        """A fixed multiplier keeps its chunks on the thread pool."""
        _, n_forks = forked(True, simulate_paths, make_params(), 100.0, -1.0,
                            0.15, 400, 4, 0.1, 2)
        assert n_forks == 0


class TestStreamingMemory:
    """Paths stream from the march into their outputs: no step-major
    batch-sized buffer is ever made."""

    def test_policy_run_peaks_below_one_path_array(self, monkeypatch):
        """Under a policy the outputs are shared memory, and the traced
        peak stays below one ``(n_steps + 1, n_paths)`` float64 array."""
        params, surface = worst_case_surface()
        n_paths, n_steps = 2000, 50
        simulate_paths(params, 100.0, -1.0, 0.15, 2, 2, 0.1, 3)  # loads scipy
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 64 * n_steps)
        policy = WorstCaseControl(surface, params)
        batch, peak = in_process_peak(simulate_paths, params, 100.0, -1.0,
                                      policy, n_paths, n_steps, 0.1, 3)
        assert batch.x_paths.shape == (n_paths, n_steps + 1)
        assert peak < (n_steps + 1) * n_paths * 8

    def test_fixed_q_run_peaks_below_outputs_and_workspaces(self, monkeypatch):
        """A fixed-q run holds its two outputs and one workspace per
        worker: the increments, whose spent rows hold the paths until they
        are copied out, and a chunk's Philox words while it draws.  Half an
        output is left for numpy's temporaries; a step-major copy of the
        batch would need a whole one."""
        n_paths, n_steps = 4000, 50
        args = (make_params(), 100.0, -1.0, 0.15)
        simulate_paths(*args, 2, 2, 0.1, 3)  # scipy loads at the first draw
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 4 * 100 * n_steps)
        chunks = sde._chunks(n_paths, n_steps, True)
        width = max(count for _, count in chunks)
        per_space = (2 + 4) * n_steps * width * 8
        outputs = 2 * (n_steps + 1) * n_paths * 8
        _, peak = in_process_peak(simulate_paths, *args, n_paths, n_steps,
                                  0.1, 3)
        spaces = min(sde._WORKERS, len(chunks)) * per_space
        assert peak < 1.5 * outputs + spaces


class TestForkThreshold:
    def test_small_halves_run_in_one_call(self, monkeypatch):
        """A half of fewer than ``_FORK_MIN_PATHS`` paths would not pay for
        its own slice derivations, so the batch runs in one call; from
        that size on the second half forks."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: True)
        started = []
        real_fork = os.fork

        def counting_fork():
            started.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        half = sde._FORK_MIN_PATHS
        # The benchmark's 20,000-path policy and 2BSDE runs still fork.
        assert half <= 20_000 // 2
        for n_paths, here, forks in ((2 * half - 1, [(0, 2 * half - 1)], 0),
                                     (2 * half, [(0, half)], 1)):
            calls, started[:] = [], []
            sde._in_halves(n_paths, lambda first, count: calls.append(
                (first, count)))
            assert (calls, len(started)) == (here, forks)
            assert_no_children()


class TestFailedChild:
    """``sde._Job.wait`` only reports a failed child; each caller makes the
    failed call once more, in-process, where its error is the caller's."""

    @pytest.mark.parametrize("caller", ["in_halves", "with_limit", "sweep"])
    def test_failing_forked_call_is_made_twice(self, monkeypatch, caller):
        """A call that fails in the child is made once there and once in
        the caller, counted in shared memory: never a third time."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: True)
        parent, counts = os.getpid(), sde._shared((2,), np.int64)

        def fail(*_, **__):
            counts[int(os.getpid() != parent)] += 1
            raise ArithmeticError(f"failing {caller}")

        params = make_params()
        payoff = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)
        trial = GridSpec(x_min=0.0, x_max=200.0, n_x=39, v_min=-1.5,
                         v_max=-0.5, n_v=5, T=0.15, n_t=1)
        grid = dataclasses.replace(trial, n_t=min_time_steps(
            params.with_delta(0.6), trial, "full"))
        if caller == "in_halves":
            monkeypatch.setattr(sde, "_FORK_MIN_PATHS", 1)

            def work(first, _):
                if first:  # the child's half
                    fail()

            call = functools.partial(sde._in_halves, 4, work)
        elif caller == "with_limit":
            monkeypatch.setattr(cli, "solve_hjb_2d", fail)
            call = functools.partial(cli._with_limit, params, payoff, grid, False)
        else:
            limit_values = convergence._limit_values

            def refined_fails(params_base, payoff, g, *args):
                if g != grid:
                    fail()
                return limit_values(params_base, payoff, g, *args)

            monkeypatch.setattr(convergence, "_limit_values", refined_fails)
            call = functools.partial(run_delta_sweep, params, payoff, grid,
                                     (100.0, -1.0), [0.6, 0.3])
        with pytest.raises(ArithmeticError, match=f"failing {caller}"):
            call()
        assert_no_children()
        assert counts.tolist() == [1, 1]  # the caller's, the child's


class TestEstimateMoment:
    def test_time_integral_in_row_blocks(self):
        """Blocks of rows give the whole-batch trapezoid's bits, and the
        in-process traced peak stays below a quarter of one path array."""
        n_paths = 40 * sde._MOMENT_BLOCK_ROWS + 7
        batch = simulate_paths(make_params(), 100.0, -1.0, 0.15, n_paths, 20,
                               0.1, seed=4)
        for which, k in (("X", 1), ("V", 2), ("X", 3)):
            paths = batch.x_paths if which == "X" else batch.v_paths
            samples = np.trapezoid(np.abs(paths) ** k, dx=batch.dt, axis=1)
            got = estimate_moment(batch, which, k, time_integrated=True)
            assert (got.estimate, got.std_error) == sde._mean_and_se(samples)
        _, peak = in_process_peak(estimate_moment, batch, "V", 2, True)
        assert peak < batch.v_paths.nbytes / 4

    def test_frozen_factor_moment_is_exact(self):
        """delta = 0 makes the terminal V moment deterministic."""
        batch = simulate_paths(
            make_params(delta=0.0), 100.0, -1.5, 0.15, 50, 8, 0.1, seed=4
        )
        for k in (1, 2, 3):
            rep = estimate_moment(batch, which="V", k=k)
            assert rep.estimate == pytest.approx(1.5**k)
            assert rep.std_error == 0.0
            assert rep.order == k and rep.n_paths == 50

    def test_time_integrated_variant(self):
        """The integrated frozen-factor moment equals T |v0|^k."""
        T = 0.2
        batch = simulate_paths(
            make_params(delta=0.0), 100.0, -2.0, 0.15, 20, 10, T, seed=4
        )
        rep = estimate_moment(batch, which="V", k=2, time_integrated=True)
        assert rep.estimate == pytest.approx(T * 4.0)
        assert rep.time_integrated

    def test_second_moment_bands_overlap_across_delta(self):
        """E[X_T^2] estimates agree within 3 SE bands as delta varies."""
        reports = []
        for delta in (0.25, 0.5, 1.0):
            batch = simulate_paths(
                make_params(delta=delta), 100.0, -1.0, 0.15, 8000, 24, 0.15,
                seed=99,
            )
            reports.append(estimate_moment(batch, which="X", k=2))
        lows = [r.estimate - 3 * r.std_error for r in reports]
        highs = [r.estimate + 3 * r.std_error for r in reports]
        assert max(lows) <= min(highs)

    def test_rejects_bad_arguments(self):
        """Unknown processes and zero orders raise ValueError."""
        batch = simulate_paths(make_params(), 100.0, -1.0, 0.15, 4, 4, 0.1, seed=0)
        with pytest.raises(ValueError):
            estimate_moment(batch, which="Y", k=1)
        with pytest.raises(ValueError):
            estimate_moment(batch, which="X", k=0)


class TestCoupledPayoffGap:
    PAYOFF = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)

    def test_delta_zero_gap_vanishes(self):
        """Frozen dynamics coincide, so the gap is exactly zero."""
        rep = coupled_payoff_gap(
            make_params(delta=0.0), self.PAYOFF, 100.0, -1.0, 0.15, 500, 10,
            0.15, seed=8,
        )
        gap, se = rep
        assert gap == 0.0 and se == 0.0
        assert rep.payoff_gap_sq == 0.0

    def test_gap_scales_roughly_linearly_in_delta(self):
        """gap_sq/delta stays within a factor 3 across a delta sweep."""
        ratios = []
        for delta in (0.1, 0.2, 0.4):
            rep = coupled_payoff_gap(
                make_params(delta=delta), self.PAYOFF, 100.0, -1.0, 0.15,
                8000, 32, 0.15, seed=17,
            )
            ratios.append(rep.gap_sq / delta)
        assert max(ratios) / min(ratios) < 3.0

    def test_step_refinement_stable(self):
        """Doubling n_steps moves gap_sq by less than 3 standard errors."""
        coarse = coupled_payoff_gap(
            make_params(), self.PAYOFF, 100.0, -1.0, 0.15, 6000, 16, 0.15, seed=23
        )
        fine = coupled_payoff_gap(
            make_params(), self.PAYOFF, 100.0, -1.0, 0.15, 6000, 32, 0.15, seed=23
        )
        tol = 3.0 * max(coarse.std_error, fine.std_error)
        assert abs(coarse.gap_sq - fine.gap_sq) <= tol

    def test_chunk_invariance(self, monkeypatch):
        """Chunking the paths leaves the report bit for bit unchanged."""
        args = (make_params(), self.PAYOFF, 100.0, -1.0, 0.15, 3000, 20, 0.15, 9)
        whole = coupled_payoff_gap(*args)
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 4 * 700 * 20)  # 700-path chunks
        chunked = coupled_payoff_gap(*args)
        assert chunked == whole

    def test_payoff_gap_controlled_by_lipschitz_constant(self):
        """The payoff gap obeys the Lipschitz comparison with the asset gap."""
        rep = coupled_payoff_gap(
            make_params(delta=0.5), self.PAYOFF, 100.0, -1.0, 0.2, 4000, 24,
            0.15, seed=31,
        )
        assert isinstance(rep, CoupledGap)
        assert 0.0 <= rep.payoff_gap_sq <= self.PAYOFF.lipschitz**2 * rep.gap_sq + 1e-12

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_horizon_is_refused(self, T):
        """An infinite horizon is refused by name, not averaged into NaN."""
        with pytest.raises(ValueError, match="horizon must be finite and "
                                             "positive"):
            coupled_payoff_gap(make_params(), self.PAYOFF, 100.0, -1.0, 0.15,
                               4, 3, T, 1)


class TestMgfClosedForm:
    def test_unit_at_eta_zero(self):
        """The MGF equals 1 at eta = 0 for any (delta, sigma, t, v)."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = make_params(
                delta=float(rng.uniform(0.01, 1.0)),
                sigma=float(rng.uniform(0.2, 1.5)),
            )
            t = float(rng.uniform(0.0, 1.0))
            v = float(rng.uniform(-2.0, 1.0))
            assert mgf_closed_form(p, 0.0, t, v) == pytest.approx(1.0, abs=1e-12)

    def test_small_delta_limit_is_one(self):
        """As delta -> 0+ with eta fixed the value tends to 1."""
        p = make_params(delta=1e-10, sigma=0.5)
        assert mgf_closed_form(p, 0.5, 0.1, -1.0) == pytest.approx(1.0, abs=1e-6)

    def test_real_branch_bound(self):
        """On the hyperbolic branch Psi respects the exp(T/2) power bound."""
        rng = np.random.default_rng(9)
        T = 1.0
        for _ in range(100):
            delta = float(rng.uniform(0.05, 1.0))
            sigma = float(rng.uniform(0.3, 1.2))
            p = make_params(delta=delta, sigma=sigma)
            t = float(rng.uniform(0.0, T))
            # eta <= delta/(2 sigma^2) keeps the discriminant nonnegative.
            eta = float(rng.uniform(0.0, delta / (2.0 * sigma**2)))
            psi, xi = mgf_components(p, eta, t)
            bound = math.exp(0.5 * T) ** (2.0 / sigma**2)
            assert psi <= bound * (1 + 1e-12)
            assert xi >= 0.0
            v = float(rng.uniform(0.0, 2.0))  # v*Xi >= 0 keeps the damping
            assert mgf_closed_form(p, eta, t, v) <= bound * (1 + 1e-12)

    def test_trigonometric_branch_continuous_with_real_branch(self):
        """Crossing the discriminant's zero changes the value smoothly."""
        p = make_params(delta=0.5, sigma=0.5)
        eta_star = p.delta / (2.0 * p.sigma**2)
        below = mgf_closed_form(p, eta_star - 1e-7, 0.3, -1.0)
        above = mgf_closed_form(p, eta_star + 1e-7, 0.3, -1.0)
        assert above == pytest.approx(below, rel=1e-5)

    def test_pole_detection(self):
        """A vanishing trigonometric denominator raises PoleError."""
        # With sigma = 1, delta = 0.5, eta = 0.5: theta = delta, and at
        # t = 3 pi / (2 delta) the angle is 3 pi / 4 where cos + sin = 0.
        p = make_params(delta=0.5, sigma=1.0)
        with pytest.raises(PoleError):
            mgf_closed_form(p, 0.5, 3.0 * math.pi / (2.0 * 0.5), -1.0)

    def test_negative_base_fractional_power_rejected(self):
        """Negative eta under a non-integer exponent is flagged as non-real."""
        p = make_params(delta=0.5, sigma=0.7)
        with pytest.raises(ValueError):
            mgf_closed_form(p, -1.0, 0.3, -1.0)

    def test_negative_t_rejected(self):
        """Negative times raise ValueError."""
        with pytest.raises(ValueError):
            mgf_closed_form(make_params(), 0.1, -0.1, 0.0)

    @pytest.mark.parametrize("eta, t", [(math.nan, 0.3), (math.inf, 0.3),
                                        (-math.inf, 0.3), (0.1, math.nan),
                                        (0.1, math.inf)])
    def test_non_finite_eta_or_t_rejected(self, eta, t):
        """A NaN or infinite eta or t is named as such, not as a
        fractional power of a negative base."""
        for call in (lambda: mgf_components(make_params(), eta, t),
                     lambda: mgf_closed_form(make_params(), eta, t, -1.0)):
            with pytest.raises(ValueError, match="eta and t must be finite"):
                call()

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_v_rejected(self, v):
        """A NaN or infinite v raises instead of returning NaN or 0."""
        with pytest.raises(ValueError, match="v must be finite"):
            mgf_closed_form(make_params(), 0.1, 0.3, v)
