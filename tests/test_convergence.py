"""Tests for delta sweeps, corrector sweeps, and error-term estimates."""

import dataclasses
import functools
import json
import math
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvpricer import convergence, hjb, sde
from uvpricer.convergence import (
    ConvergenceReport,
    FeynmanKacReport,
    SweepRow,
    _refined_for_floor,
    corrector_sweep,
    feynman_kac_terms,
    fit_loglog,
    run_delta_sweep,
)
from uvpricer.errors import FitError, NonFiniteError, StabilityError
from uvpricer.hjb import min_time_steps, solve_bsb_1d, solve_corrector, solve_hjb_2d
from uvpricer.model import GridSpec, ModelParams, PiecewiseLinearPayoff
from uvpricer.sde import coupled_payoff_gap, simulate_paths
from uvpricer.surface import _SliceMemo, greeks, optimal_control_field

from bilinear_reference import gather_read, gather_weights
from forking import assert_no_children, forked, in_process_peak


def mk_params(**overrides):
    base = dict(sigma_min=0.1, sigma_max=0.2, delta=0.25, a=0.6, b=0.5,
                alpha=2.0, rho=0.5, sigma=0.5, r=0.0)
    base.update(overrides)
    return ModelParams(**base)


def mk_grid(params, x_max=200.0, n_x=99, v_min=-1.5, v_max=-0.5, n_v=5,
            T=0.15, delta_max=0.6):
    trial = GridSpec(x_min=0.0, x_max=x_max, n_x=n_x, v_min=v_min,
                     v_max=v_max, n_v=n_v, T=T, n_t=1)
    worst = dataclasses.replace(params, delta=delta_max)
    return dataclasses.replace(trial, n_t=min_time_steps(worst, trial, "full"))


BUTTERFLY = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)


class TestFitLoglog:
    def test_recovers_exact_power_law(self):
        """A pure power law is fitted to machine precision."""
        deltas = [0.5, 0.2, 0.05]
        errors = [3.0 * d**0.7 for d in deltas]
        slope, intercept = fit_loglog(deltas, errors)
        assert slope == pytest.approx(0.7, rel=1e-12)
        assert intercept == pytest.approx(math.log(3.0), rel=1e-12)

    def test_rescaling_errors_shifts_intercept_only(self):
        """Multiplying all errors by a constant leaves the slope alone."""
        deltas = [0.4, 0.1, 0.025]
        errors = [d**0.83 for d in deltas]
        slope, intercept = fit_loglog(deltas, errors)
        slope2, intercept2 = fit_loglog(deltas, [5.0 * e for e in errors])
        assert slope2 == pytest.approx(slope, abs=1e-13)
        assert intercept2 - intercept == pytest.approx(math.log(5.0), abs=1e-12)

    def test_rejects_degenerate_input(self):
        """One point or a nonpositive error cannot be fitted."""
        with pytest.raises(ValueError, match="two points"):
            fit_loglog([0.5], [0.1])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog([0.5, 0.2], [0.1, 0.0])

    @pytest.mark.parametrize("deltas, errors, message", [
        ([0.5, 0.2], [0.1, np.nan], "errors must be finite and positive"),
        ([0.5, 0.2], [np.inf, 0.1], "errors must be finite and positive"),
        ([0.5, 0.2], [0.1, -0.1], "errors must be finite and positive"),
        ([0.5, 0.0], [0.1, 0.05], "deltas must be finite and positive"),
        ([0.5, -0.2], [0.1, 0.05], "deltas must be finite and positive"),
        ([0.5, np.nan], [0.1, 0.05], "deltas must be finite and positive"),
        ([np.inf, 0.2], [0.1, 0.05], "deltas must be finite and positive"),
        ([0.2, 0.2], [0.1, 0.05], "distinct deltas"),
        ([0.5, 0.2, 0.1], [0.1, 0.05], "one error per delta"),
        ([0.5, 0.2], [0.1, 0.05, 0.02], "one error per delta"),
    ])
    def test_rejects_inputs_without_a_slope(self, deltas, errors, message,
                                            capfd):
        """Non-finite or nonpositive values, repeated deltas and lists of
        unequal length raise ValueError before LAPACK sees them."""
        with pytest.raises(ValueError, match=message):
            fit_loglog(deltas, errors)
        assert capfd.readouterr().err == ""


class TestRunDeltaSweep:
    def test_rows_and_slope(self):
        """A two-delta sweep tabulates signed errors and fits a slope."""
        params = mk_params()
        grid = mk_grid(params)
        report = run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.2, 0.5], noise_floor=0.0)
        assert [row.delta for row in report.rows] == [0.5, 0.2]
        assert report.point == (0.0, 100.0, -1.0)
        p0_vals = {row.p0 for row in report.rows}
        assert len(p0_vals) == 1
        for row in report.rows:
            assert row.error == row.p_delta - row.p0
            assert row.abs_error == abs(row.error)
            assert not row.excluded
        assert np.isfinite(report.slope)
        assert report.deltas_excluded == ()

    def test_slope_in_square_root_to_linear_band(self):
        """On a modest grid the fitted rate lands between 1/2 and 1."""
        params = mk_params()
        grid = mk_grid(params)
        report = run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.6, 0.3, 0.15], noise_floor=0.0)
        assert 0.4 < report.slope < 1.1

    def test_measured_noise_floor(self):
        """Without a supplied floor the sweep measures one by refinement."""
        params = mk_params()
        grid = mk_grid(params, n_x=149)
        report = run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.3, 0.6])
        assert report.noise_floor > 0.0
        assert all(not row.excluded for row in report.rows)

    @pytest.mark.parametrize("cell_average", [False, True])
    def test_rows_equal_the_lone_solves(self, cell_average):
        """The stacked delta march and the two-column limit read what the
        lone solves read, bit for bit, the noise floor included."""
        params = mk_params()
        grid = mk_grid(params, n_x=149)
        point = (97.0, -1.1)
        report = run_delta_sweep(params, BUTTERFLY, grid, point, [0.6, 0.3],
                                 cell_average_terminal=cell_average)
        opts = dict(cell_average_terminal=cell_average)

        def lone(g, d):
            p_d = solve_hjb_2d(params.with_delta(d), BUTTERFLY, g, **opts)
            p_0 = solve_bsb_1d(params, BUTTERFLY, g, **opts)
            return p_d.value_at(0, *point), p_0.value_at(0, *point)

        for row in report.rows:
            assert (row.p_delta, row.p0) == lone(grid, row.delta)
        fine = _refined_for_floor(params.with_delta(0.3), grid)
        fine_d, fine_0 = lone(fine, 0.3)
        assert report.noise_floor == abs(fine_d - fine_0 - report.rows[-1].error)

    def test_all_rows_below_floor_raises_with_partial_report(self):
        """A huge floor excludes everything and surfaces the partial rows."""
        params = mk_params()
        grid = mk_grid(params)
        with pytest.raises(FitError) as err:
            run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                            [0.2, 0.5], noise_floor=1e6)
        partial = err.value.report
        assert isinstance(partial, ConvergenceReport)
        assert math.isnan(partial.slope)
        assert partial.deltas_excluded == (0.5, 0.2)
        assert all(row.excluded for row in partial.rows)

    def test_determinism(self):
        """Identical inputs reproduce the report bit for bit."""
        params = mk_params()
        grid = mk_grid(params)
        kwargs = dict(point=(95.0, -1.0), deltas=[0.4, 0.1], noise_floor=0.0)
        first = run_delta_sweep(params, BUTTERFLY, grid, **kwargs)
        second = run_delta_sweep(params, BUTTERFLY, grid, **kwargs)
        assert first == second

    def test_input_validation(self):
        """Bad deltas or an outside point are rejected up front."""
        params = mk_params()
        grid = mk_grid(params)
        point = (100.0, -1.0)
        with pytest.raises(ValueError, match="distinct"):
            run_delta_sweep(params, BUTTERFLY, grid, point, [0.2, 0.2])
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            run_delta_sweep(params, BUTTERFLY, grid, point, [0.2, 1.5])
        with pytest.raises(ValueError, match="empty"):
            run_delta_sweep(params, BUTTERFLY, grid, point, [])
        with pytest.raises(ValueError, match="outside"):
            run_delta_sweep(params, BUTTERFLY, grid, (500.0, -1.0), [0.2, 0.5])
        for floor in (-1.0, math.nan):
            with pytest.raises(ValueError, match="noise_floor"):
                run_delta_sweep(params, BUTTERFLY, grid, point, [0.2, 0.5],
                                noise_floor=floor)

    def test_solver_failure_names_the_delta(self):
        """A stability failure during the sweep carries the offending delta."""
        params = mk_params()
        trial = GridSpec(x_min=0.0, x_max=200.0, n_x=99, v_min=-1.5,
                         v_max=-0.5, n_v=81, T=0.15, n_t=1)
        n_bsb = min_time_steps(params, trial, "bsb")
        n_full = min_time_steps(dataclasses.replace(params, delta=0.5),
                                trial, "full")
        assert n_bsb < n_full - 1
        grid = dataclasses.replace(trial, n_t=n_full - 1)
        with pytest.raises(StabilityError, match="delta=0.5"):
            run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                            [0.2, 0.5], noise_floor=0.0)

    def test_artifacts(self, tmp_path):
        """CSV, JSON, and plot-script outputs carry the report contents."""
        params = mk_params()
        grid = mk_grid(params)
        report = run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.2, 0.5], noise_floor=0.0)
        csv_path = tmp_path / "sweep.csv"
        report.to_csv(csv_path, header_lines=("config_hash=deadbeef",))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1] == "delta,p_delta,p0,error,abs_error,excluded"
        assert len(lines) == 2 + len(report.rows)
        assert lines[2].startswith("0.5,")
        assert lines[2].endswith(",0")

        json_path = tmp_path / "sweep.json"
        report.to_json(json_path, extra={"config_hash": "deadbeef"})
        doc = json.loads(json_path.read_text())
        assert doc["slope"] == report.slope
        assert doc["config_hash"] == "deadbeef"
        assert doc["rows"][0]["delta"] == 0.5
        assert doc["grid"]["n_x"] == grid.n_x

        plot_path = tmp_path / "sweep.gp"
        report.to_plot_script(plot_path, "sweep.csv")
        script = plot_path.read_text()
        assert "set logscale xy" in script
        assert "'sweep.csv'" in script
        assert f"{report.slope!r}" in script

    def test_report_rejects_unsorted_rows(self):
        """Rows must arrive in descending delta order."""
        row = SweepRow(delta=0.1, p_delta=1.0, p0=0.9, error=0.1,
                       abs_error=0.1, excluded=False)
        row2 = dataclasses.replace(row, delta=0.5)
        with pytest.raises(ValueError, match="descending"):
            ConvergenceReport(point=(0.0, 100.0, -1.0), rows=(row, row2),
                              slope=1.0, intercept=0.0, deltas_excluded=(),
                              noise_floor=0.0, grid=mk_grid(mk_params()),
                              params=mk_params())


class TestCorrectorSweep:
    def test_zero_correlation_reduces_to_plain_errors(self):
        """With rho = 0 the correction vanishes and rows match the sweep."""
        params = mk_params(rho=0.0)
        grid = mk_grid(params)
        deltas = [0.16, 0.36]
        point = (100.0, -1.0)
        plain = run_delta_sweep(params, BUTTERFLY, grid, point, deltas,
                                noise_floor=0.0)
        corr = corrector_sweep(params, BUTTERFLY, grid, point, deltas,
                               noise_floor=0.0)
        for row, crow in zip(plain.rows, corr.rows):
            assert crow.p1 == 0.0
            assert crow.delta == row.delta
            assert crow.p_delta == row.p_delta
            assert crow.e_delta == pytest.approx(row.error, abs=1e-15)

    def test_remainder_scales_linearly(self):
        """|remainder|/delta stays within a small max/min ratio."""
        params = mk_params()
        grid = mk_grid(params)
        report = corrector_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.04, 0.16, 0.36], noise_floor=0.0)
        assert len(report.usable_rows) == 3
        for row in report.rows:
            assert row.e_delta == row.p_delta - row.p0 - math.sqrt(row.delta) * row.p1
            assert row.e_over_delta == row.e_delta / row.delta
        assert report.ratio < 4.0

    def test_measured_floor_and_exclusion(self):
        """The floor is measured on the remainder; a huge one voids the ratio;
        a negative or NaN one is rejected."""
        params = mk_params()
        grid = mk_grid(params, n_x=49)
        report = corrector_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.09, 0.36])
        assert report.noise_floor > 0.0
        voided = corrector_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.09, 0.36], noise_floor=1e6)
        assert all(row.excluded for row in voided.rows)
        assert math.isnan(voided.ratio)
        for floor in (-1.0, math.nan):
            with pytest.raises(ValueError, match="noise_floor"):
                corrector_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                [0.09, 0.36], noise_floor=floor)

    def test_peak_does_not_grow_with_the_step_count(self):
        """The limit marches beside the corrector and keeps no slice stack:
        at four times the steps the in-process traced peak of the sweep
        grows by less than four slices (a stack would add one per step)."""
        params = mk_params()
        grid = mk_grid(params, n_x=99, n_v=11)

        def peak(n_t):
            longer = dataclasses.replace(grid, n_t=n_t)
            return in_process_peak(corrector_sweep, params, BUTTERFLY, longer,
                                   (100.0, -1.0), [0.16, 0.36],
                                   noise_floor=0.0)[1]

        peak(grid.n_t)  # first-call allocations are not the sweep's
        slice_bytes = (grid.n_x + 2) * grid.n_v * 8
        assert peak(4 * grid.n_t) < peak(grid.n_t) + 4 * slice_bytes

    def test_artifacts(self, tmp_path):
        """The corrector CSV and JSON mirror the row schema."""
        params = mk_params()
        grid = mk_grid(params)
        report = corrector_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                                 [0.16, 0.36], noise_floor=0.0)
        csv_path = tmp_path / "corr.csv"
        report.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "delta,p_delta,p0,p1,e_delta,e_over_delta,excluded"
        assert len(lines) == 1 + len(report.rows)
        json_path = tmp_path / "corr.json"
        report.to_json(json_path)
        doc = json.loads(json_path.read_text())
        assert doc["ratio"] == report.ratio
        assert doc["rows"][0]["delta"] == 0.36


# Large enough that every march, the limit's too, overflows at its first
# step.
TOO_HUGE_BUTTERFLY = PiecewiseLinearPayoff.from_calls(
    [(90.0, 1e307), (100.0, -2e307), (110.0, 1e307)]
)
SWEEPS = {"sweep": run_delta_sweep, "corrector": corrector_sweep}
# A butterfly whose marches overflow under ``overflowing_multiplier``, the
# larger delta at the earlier step, while the limit's stays finite.
BIG_BUTTERFLY = PiecewiseLinearPayoff.from_calls(
    [(90.0, 1e160), (100.0, -2e160), (110.0, 1e160)]
)


def overflowing_multiplier(monkeypatch):
    """Make the multiplier infinite where it is an interior maximizer with
    ``b >= 2**512``: a source of overflow that grows with delta and that
    the limit, where ``b`` is zero, never meets."""
    q_argsup = hjb._q_argsup

    def overflowing(aa, bb, lo, hi, out):
        q = q_argsup(aa, bb, lo, hi, out)
        q[(q > lo) & (q < hi) & (bb >= 2.0**512)] = np.inf
        return q

    monkeypatch.setattr(hjb, "_q_argsup", overflowing)


@pytest.fixture
def forks(monkeypatch):
    """Sweeps fork their delta marches; the list records each fork."""
    monkeypatch.setattr(sde, "_fork_ok", lambda: True)
    return count_forks(monkeypatch)


def count_forks(monkeypatch):
    """The list that records each ``os.fork`` call from now on."""
    started = []
    real_fork = os.fork

    def fork():
        started.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return started


def count_calls(monkeypatch, *names):
    """A function that returns the counts of each named ``convergence``
    function's calls from now on, by this process (``"caller"``) and by
    its children (``"child"``), which count in shared memory."""
    parent, counts = os.getpid(), sde._shared((2, len(names)), np.int64)
    for j, name in enumerate(names):
        def counting(*args, real=getattr(convergence, name), j=j):
            counts[int(os.getpid() != parent), j] += 1
            return real(*args)

        monkeypatch.setattr(convergence, name, counting)
    return lambda: {side: dict(zip(names, row.tolist()))
                    for side, row in zip(("caller", "child"), counts)}


def in_process(monkeypatch, sweep, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(sde, "_fork_ok", lambda: False)
        return sweep(*args, **kwargs)


def sweep_error(sweep, *args, **kwargs):
    with np.errstate(all="ignore"), pytest.raises(Exception) as err:
        sweep(*args, **kwargs)
    assert_no_children()
    return err.value


def error_fields(err):
    """What a caller reads of a sweep's error."""
    return (type(err), str(err), getattr(err, "min_time_steps", None),
            getattr(err, "stack_index", None), getattr(err, "time_index", None),
            getattr(err, "node", None))


def one_march_error(params, payoff, grid, point, deltas):
    """The error of one stacked march of all ``deltas``, by descending delta."""
    ds = sorted(deltas, reverse=True)
    return sweep_error(convergence._solve_deltas, params, payoff, grid,
                       *point, ds, False, np.empty(len(ds)))


def sweep_outcome(sweep, *args, **kwargs):
    """The sweep's report, or the partial report of its FitError."""
    try:
        return sweep(*args, **kwargs)
    except FitError as exc:
        return "FitError", str(exc), exc.report.as_dict()


def plant_overflow(monkeypatch, plant, node=(20, 2)):
    """Every stacked delta march writes the largest float at ``node`` of
    delta ``d``'s slice at time index ``plant[d]``, so that delta's march
    overflows at the next step."""
    full_values, steps = convergence._full_values, hjb._Marcher.steps
    marching = []

    def planting_full_values(params, deltas, *args):
        marching[:] = deltas
        try:
            return full_values(params, deltas, *args)
        finally:
            marching.clear()

    def planting_steps(self):
        for k, P in steps(self):
            for j, d in enumerate(marching):
                if plant.get(d) == k:
                    (P[:, j] if P.ndim == 3 else P)[node] = np.finfo(float).max
            yield k, P

    monkeypatch.setattr(convergence, "_full_values", planting_full_values)
    monkeypatch.setattr(hjb._Marcher, "steps", planting_steps)


def fail_off_grid(monkeypatch, name, grid):
    """Make the named ``convergence`` solve raise ``ValueError("refined
    NAME")`` on any grid but ``grid``."""
    solve = getattr(convergence, name)

    def call(params_base, payoff, g, *args):
        if g != grid:
            raise ValueError(f"refined {name}")
        return solve(params_base, payoff, g, *args)

    monkeypatch.setattr(convergence, name, call)


def in_refined_limit(monkeypatch, grid, act):
    """Call ``act(k, P)`` at each step ``k`` of the marches that
    ``_limit_values`` makes on any grid but ``grid``: the refined limit's,
    or the refined stack of ``P0`` and ``P1``."""
    limit_values, steps = convergence._limit_values, hjb._Marcher.steps
    refining = []

    def flagging(params_base, payoff, g, *args):
        refining.append(g != grid)
        try:
            return limit_values(params_base, payoff, g, *args)
        finally:
            refining.pop()

    def acting(self):
        for k, P in steps(self):
            if any(refining):
                act(k, P)
            yield k, P

    monkeypatch.setattr(convergence, "_limit_values", flagging)
    monkeypatch.setattr(hjb._Marcher, "steps", acting)


# Delta lists for sweeps with a given floor: the child marches all but the
# smallest (m - 1) // 2 of the m deltas, the caller those.
GIVEN_FLOOR_DELTAS = ([0.6], [0.6, 0.3], [0.6, 0.3, 0.15],
                      [0.6, 0.45, 0.3, 0.15])


class TestForkedSweeps:
    """One march of a sweep runs in a forked child beside the caller's, and
    the sweep gives the in-process reports and errors; no child outlives
    the sweep."""

    @pytest.mark.parametrize("cell_average", [False, True])
    @pytest.mark.parametrize("floor", [None, 1e-9])
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_reports_equal_in_process(self, forks, monkeypatch, kind,
                                      floor, cell_average):
        params = mk_params()
        grid = mk_grid(params, n_x=149)
        kwargs = dict(cell_average_terminal=cell_average, noise_floor=floor)
        for deltas in [[0.6, 0.3]] if floor is None else GIVEN_FLOOR_DELTAS:
            forks.clear()
            args = (params, BUTTERFLY, grid, (100.0, -1.0), deltas)
            got = sweep_outcome(SWEEPS[kind], *args, **kwargs)
            assert len(forks) == 1
            assert_no_children()
            assert got == in_process(monkeypatch, sweep_outcome, SWEEPS[kind],
                                     *args, **kwargs)

    def test_stability_error(self, forks, monkeypatch):
        """The child's StabilityError reaches the caller, typed and with
        its minimum step count, as ``test_solver_failure_names_the_delta``
        has it in-process."""
        params = mk_params()
        trial = GridSpec(x_min=0.0, x_max=200.0, n_x=99, v_min=-1.5,
                         v_max=-0.5, n_v=81, T=0.15, n_t=1)
        n_full = min_time_steps(params.with_delta(0.5), trial, "full")
        grid = dataclasses.replace(trial, n_t=n_full - 1)
        args = (params, BUTTERFLY, grid, (100.0, -1.0), [0.2, 0.5])
        err = sweep_error(run_delta_sweep, *args)
        assert len(forks) == 1
        assert isinstance(err, StabilityError)
        assert "delta=0.5" in str(err)
        assert err.min_time_steps == n_full
        want = sweep_error(in_process, monkeypatch, run_delta_sweep, *args)
        assert (str(err), err.min_time_steps) == (str(want), want.min_time_steps)
        # With the floor given, as one march of all the deltas raises it.
        for deltas in ([0.5], [0.5, 0.2], [0.5, 0.2, 0.1],
                       [0.6, 0.5, 0.2, 0.1]):
            args = (params, BUTTERFLY, grid, (100.0, -1.0), deltas)
            err = sweep_error(run_delta_sweep, *args, noise_floor=0.0)
            want = sweep_error(in_process, monkeypatch, run_delta_sweep,
                               *args, noise_floor=0.0)
            assert isinstance(err, StabilityError)
            assert f"delta={deltas[0]}" in str(err)
            assert error_fields(err) == error_fields(want) == error_fields(
                one_march_error(*args))

    def test_non_finite_error(self, forks, monkeypatch):
        """A delta march that overflows raises the in-process error: the
        delta, the stack index, the step and the node."""
        overflowing_multiplier(monkeypatch)
        params = mk_params()
        grid = mk_grid(params, n_x=39)
        args = (params, BIG_BUTTERFLY, grid, (100.0, -1.0), [0.5, 0.2])
        err = sweep_error(run_delta_sweep, *args)
        want = sweep_error(in_process, monkeypatch, run_delta_sweep, *args)
        assert isinstance(err, NonFiniteError)
        assert "delta=0.5" in str(err)
        assert (str(err), err.stack_index, err.time_index, err.node) == (
            str(want), want.stack_index, want.time_index, want.node)
        # With the floor given, the first and largest delta overflows first
        # and is named, as one march of all of them names it.
        for deltas in ([0.5], [0.5, 0.2], [0.5, 0.3, 0.2],
                       [0.5, 0.4, 0.3, 0.2]):
            args = (params, BIG_BUTTERFLY, grid, (100.0, -1.0), deltas)
            err = sweep_error(run_delta_sweep, *args, noise_floor=0.0)
            want = sweep_error(in_process, monkeypatch, run_delta_sweep,
                               *args, noise_floor=0.0)
            assert isinstance(err, NonFiniteError)
            assert "delta=0.5" in str(err)
            assert error_fields(err) == error_fields(want) == error_fields(
                one_march_error(*args))

    @pytest.mark.parametrize("deltas, plant, named", [
        # The caller's delta overflows at an earlier step than the child's.
        ([0.5, 0.3, 0.2], {0.3: -10, 0.2: -5}, 0.2),
        ([0.5, 0.4, 0.3, 0.2], {0.4: -7, 0.2: -3}, 0.2),
        # The child's delta overflows first, or at the same step.
        ([0.5, 0.3, 0.2], {0.5: -5, 0.2: -10}, 0.5),
        ([0.5, 0.3, 0.2], {0.3: -5, 0.2: -5}, 0.3),
        ([0.5, 0.2], {0.2: -8, 0.5: -4}, 0.5),
    ])
    def test_first_overflow_wins(self, forks, monkeypatch, deltas, plant,
                                 named):
        """Deltas of the child's and the caller's stacks overflow at
        different steps: the sweep raises the error of the step met first,
        the earlier delta on a tie, as one march of all the deltas does."""
        params = mk_params()
        grid = mk_grid(params, n_x=39)
        plant_overflow(monkeypatch, {d: grid.n_t + k for d, k in plant.items()})
        args = (params, BUTTERFLY, grid, (100.0, -1.0), deltas)
        err = sweep_error(corrector_sweep, *args, noise_floor=0.0)
        want = sweep_error(in_process, monkeypatch, corrector_sweep, *args,
                           noise_floor=0.0)
        assert len(forks) == 1
        assert isinstance(err, NonFiniteError)
        assert f"delta={named}" in str(err)
        assert err.stack_index == deltas.index(named)
        assert err.time_index == grid.n_t + plant[named] - 1
        assert error_fields(err) == error_fields(want) == error_fields(
            one_march_error(*args))

    def test_caller_stability_error_before_child_overflow(self, forks,
                                                          monkeypatch):
        """The child's delta overflows and the caller's delta fails its
        stability check: the stability error is raised, as one march of
        all the deltas checks stability before its first step."""
        params = mk_params()
        grid = mk_grid(params, n_x=39)
        plant_overflow(monkeypatch, {0.5: grid.n_t - 5})
        require = convergence._require_stability

        def refusing(params_d, *args):
            if params_d.delta == 0.2:
                raise StabilityError("refused", min_time_steps=grid.n_t + 1)
            require(params_d, *args)

        monkeypatch.setattr(convergence, "_require_stability", refusing)
        args = (params, BUTTERFLY, grid, (100.0, -1.0), [0.5, 0.3, 0.2])
        err = sweep_error(run_delta_sweep, *args, noise_floor=0.0)
        want = sweep_error(in_process, monkeypatch, run_delta_sweep, *args,
                           noise_floor=0.0)
        assert len(forks) == 1
        assert isinstance(err, StabilityError)
        assert str(err) == "refused (while solving at delta=0.2)"
        assert error_fields(err) == error_fields(want) == error_fields(
            one_march_error(*args))

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_failing_limit_wins(self, forks, monkeypatch, kind):
        """The limit and the delta marches all overflow: the limit's
        error is raised, and the children are killed and reaped."""
        params = mk_params()
        args = (params, TOO_HUGE_BUTTERFLY, mk_grid(params, n_x=39),
                (100.0, -1.0), [0.5, 0.2])
        err = sweep_error(SWEEPS[kind], *args)
        want = sweep_error(in_process, monkeypatch, SWEEPS[kind], *args)
        assert len(forks) == 1
        assert isinstance(err, NonFiniteError)
        assert "delta=" not in str(err)
        assert (str(err), err.time_index, err.node) == (
            str(want), want.time_index, want.node)

    def test_limit_stability_error_wins(self, forks):
        """Too few steps for the limit and for every delta: the limit's
        StabilityError, without a delta, is raised."""
        params = mk_params()
        trial = GridSpec(x_min=0.0, x_max=200.0, n_x=99, v_min=-1.5,
                         v_max=-0.5, n_v=5, T=0.15, n_t=1)
        n_bsb = min_time_steps(params, trial, "bsb")
        grid = dataclasses.replace(trial, n_t=n_bsb - 1)
        err = sweep_error(run_delta_sweep, params, BUTTERFLY, grid,
                          (100.0, -1.0), [0.5, 0.2])
        assert isinstance(err, StabilityError)
        assert "delta=" not in str(err)
        assert err.min_time_steps == n_bsb

    @pytest.mark.parametrize("fork", [True, False])
    def test_refined_delta_error_before_refined_limit(self, monkeypatch,
                                                      fork):
        """Both refined solves fail: the refined delta march's error is
        raised, as one solve after the other raised it.  Forked, the child
        makes both refined solves in that plain order, so its refined limit
        never starts."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: fork)
        params = mk_params()
        grid = mk_grid(params, n_x=49)
        for name in ("_solve_deltas", "_limit_values"):
            fail_off_grid(monkeypatch, name, grid)
        with pytest.raises(ValueError, match="refined _solve_deltas"):
            run_delta_sweep(params, BUTTERFLY, grid, (100.0, -1.0),
                            [0.36, 0.09])
        assert_no_children()

    @pytest.mark.parametrize("failure", ["value_error", "overflow"])
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_refined_limit_error_names_the_smallest_delta(
            self, forks, monkeypatch, kind, failure):
        """Only the refined limit fails, by a ValueError on the refined
        grid or by an overflow in its march: forked and in-process, the
        sweep raises the plain order's error, the smallest delta named."""
        params = mk_params()
        grid = mk_grid(params, n_x=49)
        if failure == "value_error":
            fail_off_grid(monkeypatch, "_limit_values", grid)
        else:
            def overflowing(k, P):
                if k == 64:
                    P[20, ..., 2] = np.finfo(float).max

            in_refined_limit(monkeypatch, grid, overflowing)
        args = (params, BUTTERFLY, grid, (100.0, -1.0), [0.36, 0.09])
        err = sweep_error(SWEEPS[kind], *args)
        want = sweep_error(in_process, monkeypatch, SWEEPS[kind], *args)
        assert len(forks) == 1
        assert isinstance(err, ValueError if failure == "value_error"
                          else NonFiniteError)
        assert str(err).endswith("(while solving at delta=0.09)")
        assert error_fields(err) == error_fields(want)

    @pytest.mark.parametrize("failure", ["killed", "wrong_values"])
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_failed_refined_limit_is_redone_in_process(
            self, forks, monkeypatch, kind, failure):
        """A child killed during its refined limit, or one that writes
        wrong values into all three refined slots and then dies, still
        gives the in-process report."""
        params = mk_params()
        grid = mk_grid(params, n_x=149)
        args = (params, BUTTERFLY, grid, (100.0, -1.0), [0.6, 0.3])
        want = in_process(monkeypatch, sweep_outcome, SWEEPS[kind], *args)
        shared, arrays = convergence._shared, []

        def keeping(*a):
            arrays.append(shared(*a))
            return arrays[-1]

        monkeypatch.setattr(convergence, "_shared", keeping)
        parent, steps = os.getpid(), []

        def dying(k, P):
            if os.getpid() == parent:
                steps.append(k)
                return
            if failure == "killed" and k > 64:
                return
            if failure == "wrong_values":
                arrays[-1][-3:] = -1.0  # the refined P_delta, P0 and P1
            os.kill(os.getpid(), signal.SIGKILL)

        in_refined_limit(monkeypatch, grid, dying)
        got = sweep_outcome(SWEEPS[kind], *args)
        assert len(forks) == 1
        assert_no_children()
        assert got == want
        assert steps  # the parent marched the refined limit itself

    @pytest.mark.parametrize("failure", ["killed", "wrong_values"])
    def test_failed_child_is_redone_in_process(self, forks, monkeypatch,
                                               failure):
        """A child killed mid-march, or one that writes wrong values into
        its shared output and then dies, still gives the in-process
        report."""
        params = mk_params()
        grid = mk_grid(params, n_x=149)
        cases = [([0.6, 0.3], None)]
        if failure == "killed":
            cases += [(deltas, 1e-9) for deltas in GIVEN_FLOOR_DELTAS]
        wants = [in_process(monkeypatch, sweep_outcome, run_delta_sweep,
                            params, BUTTERFLY, grid, (100.0, -1.0), deltas,
                            noise_floor=floor)
                 for deltas, floor in cases]
        parent = os.getpid()
        steps = []
        if failure == "killed":
            q_argsup = hjb._q_argsup

            def dying(*a, **kw):
                steps.append(1)
                if os.getpid() != parent and len(steps) == 10:
                    os.kill(os.getpid(), signal.SIGKILL)
                return q_argsup(*a, **kw)

            monkeypatch.setattr(hjb, "_q_argsup", dying)
        else:
            solve = convergence._solve_deltas

            def writing_then_dying(*a):
                steps.append(1)
                if os.getpid() != parent:
                    a[-1][:] = -1.0
                    os.kill(os.getpid(), signal.SIGKILL)
                solve(*a)

            monkeypatch.setattr(convergence, "_solve_deltas",
                                writing_then_dying)
        for (deltas, floor), want in zip(cases, wants):
            forks.clear()
            steps.clear()
            got = sweep_outcome(run_delta_sweep, params, BUTTERFLY, grid,
                                (100.0, -1.0), deltas, noise_floor=floor)
            assert len(forks) == 1
            assert_no_children()
            assert got == want
            if failure == "killed":
                assert steps  # the parent marched the child's deltas itself
            else:
                # The parent made its own delta solve, then replayed the
                # plain order's two: the sweep grid's and the child's.
                assert steps == [1, 1, 1]

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("floor, deltas, solves", [
        (None, [0.6, 0.3], 2),
        (1e-9, [0.6], 1),
        (1e-9, [0.6, 0.3], 1),
        (1e-9, [0.6, 0.3, 0.15], 2),
    ])
    def test_successful_sweep_never_replays(self, monkeypatch, fork, floor,
                                            deltas, solves):
        """In-process, a sweep runs the plain order once: one stacked
        march of its deltas and one limit solve per grid.  Forked, it makes
        ``solves`` delta marches: the child one and, with the floor
        measured, the refined limit after it, and the caller the rest, so
        no plain order is replayed after a success."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: fork)
        calls = count_calls(monkeypatch, "_solve_deltas", "_limit_values")
        params = mk_params()
        sweep_outcome(run_delta_sweep, params, BUTTERFLY,
                      mk_grid(params, n_x=49), (100.0, -1.0), deltas,
                      noise_floor=floor)
        assert_no_children()
        grids = 1 if floor else 2
        child = {"_solve_deltas": int(fork),
                 "_limit_values": int(fork and floor is None)}
        caller = ({"_solve_deltas": solves - 1, "_limit_values": 1} if fork
                  else {"_solve_deltas": grids, "_limit_values": grids})
        assert calls() == {"caller": caller, "child": child}

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_no_child_runs_the_plain_order_once(self, monkeypatch, kind):
        """With no child, a sweep whose refined limit raises makes each
        solve of the plain order once and raises its error: nothing is
        replayed."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: False)
        params = mk_params()
        grid = mk_grid(params, n_x=49)
        fail_off_grid(monkeypatch, "_limit_values", grid)
        calls = count_calls(monkeypatch, "_solve_deltas", "_limit_values")
        with pytest.raises(ValueError, match="refined _limit_values"):
            SWEEPS[kind](params, BUTTERFLY, grid, (100.0, -1.0), [0.36, 0.09])
        assert_no_children()
        assert calls()["caller"] == {"_solve_deltas": 2, "_limit_values": 2}

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("floor, deltas", [(None, [0.6, 0.3]),
                                               (1e-9, [0.6, 0.3, 0.15])])
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_one_off_failure_is_replayed(self, monkeypatch, kind, fork,
                                         floor, deltas):
        """The caller's first delta march raises once.  Forked, the sweep
        kills the child, replays the plain order here and returns the
        in-process report; with no child, the plain order runs once and
        raises the error."""
        params = mk_params()
        args = (params, BUTTERFLY, mk_grid(params, n_x=149), (100.0, -1.0),
                deltas)
        want = in_process(monkeypatch, sweep_outcome, SWEEPS[kind], *args,
                          noise_floor=floor)
        monkeypatch.setattr(sde, "_fork_ok", lambda: fork)
        started = count_forks(monkeypatch)
        parent, failed = os.getpid(), []
        solve = convergence._solve_deltas

        def failing_once(*a):
            if os.getpid() == parent and not failed:
                failed.append(1)
                raise MemoryError("one-off")
            solve(*a)

        monkeypatch.setattr(convergence, "_solve_deltas", failing_once)
        if fork:
            assert sweep_outcome(SWEEPS[kind], *args, noise_floor=floor) == want
        else:
            with pytest.raises(MemoryError, match="one-off"):
                SWEEPS[kind](*args, noise_floor=floor)
        assert_no_children()
        assert failed and len(started) == fork

    def test_sweep_forks_after_a_fixed_q_simulation(self, monkeypatch):
        """A fixed-q simulation and a coupled gap leave no pool thread
        behind, so a later sweep still forks its delta marches."""
        monkeypatch.setattr(sde, "_WORKERS", max(2, sde._WORKERS))
        threads = threading.active_count()
        params = mk_params()
        simulate_paths(params, 100.0, -1.0, 0.15, 2000, 16, 0.15, seed=3)
        coupled_payoff_gap(params, BUTTERFLY, 100.0, -1.0, 0.15, 2000, 16,
                           0.15, seed=3)
        assert threading.active_count() == threads == 1
        started = count_forks(monkeypatch)
        run_delta_sweep(params, BUTTERFLY, mk_grid(params, n_x=149),
                        (100.0, -1.0), [0.6, 0.3])
        assert len(started) == 1
        assert_no_children()


class GatherPolicy:
    """Worst-case policy reading its nearest node with 2-D gathers."""

    tag = "gather policy"

    def __init__(self, surface, params):
        self.grid = surface.grid
        self.field_at = _SliceMemo(
            surface, lambda s, k: optimal_control_field(s, params, k).q_star
        )

    def values(self, t, x, v):
        grid = self.grid
        ix = np.clip(np.rint((x - grid.x_min) / grid.dx).astype(int), 0, grid.n_x + 1)
        iv = np.clip(np.rint((v - grid.v_min) / grid.dv).astype(int), 0, grid.n_v - 1)
        return self.field_at(t)[ix, iv]


def gather_feynman_kac(params, grid, p0, p1, p_delta, delta, n_paths, n_steps,
                       seed, point, control_source, include_higher):
    """The Feynman-Kac terms as a per-step loop of 2-D gathers."""
    params_d = params.with_delta(float(delta))
    policy = GatherPolicy(p_delta if control_source == "delta" else p0, params_d)
    batch = simulate_paths(params_d, point[0], point[1], policy, n_paths,
                           n_steps, grid.T, seed)
    dt = grid.T / n_steps
    lo, hi = params.sigma_min, params.sigma_max
    d_lin = hi - lo
    d_sq = hi * hi - lo * lo
    rho_sigma = params.rho * params.sigma
    greeks_d, greeks_0, greeks_1 = (
        _SliceMemo(surface, greeks) for surface in (p_delta, p0, p1)
    )
    i0_acc = np.zeros(n_paths)
    i1_acc = np.zeros(n_paths)
    i2_acc = np.zeros(n_paths)
    i3_acc = np.zeros(n_paths)
    for k in range(n_steps + 1):
        t = k * dt
        w = dt * (0.5 if k in (0, n_steps) else 1.0)
        x = batch.x_paths[:, k]
        v = batch.v_paths[:, k]
        cell = gather_weights(grid, x, v)
        g_d = greeks_d(t)
        g_0 = greeks_0(t)
        gamma_d = gather_read(g_d.gamma, *cell)
        gamma_0 = gather_read(g_0.gamma, *cell)
        ind = (gamma_d >= 0.0).astype(float) - (gamma_0 >= 0.0).astype(float)
        ev = np.exp(v)
        g_1 = greeks_1(t)
        base = 0.5 * d_sq * ind * ev * ev * x * x
        i0_acc += w * base * gamma_0
        i1_acc += w * (
            d_lin * ind * rho_sigma * ev * x * gather_read(g_0.vanna, *cell)
            + base * gather_read(g_1.gamma, *cell)
        )
        q_star = np.where(gamma_d >= 0.0, hi, lo)
        drift_v = params.a - params.b * np.exp(params.alpha * v)
        i2_acc += w * (
            q_star * rho_sigma * ev * x * gather_read(g_1.vanna, *cell)
            + 0.5 * params.sigma**2 * gather_read(g_0.vomma, *cell)
            + drift_v * gather_read(g_0.vega, *cell)
        )
        i3_acc += w * (
            0.5 * params.sigma**2 * gather_read(g_1.vomma, *cell)
            + drift_v * gather_read(g_1.vega, *cell)
        )

    def stats(acc):
        return float(acc.mean()), float(acc.std(ddof=1) / math.sqrt(n_paths))

    extra = {}
    if include_higher:
        extra["i2"], extra["i2_std_error"] = stats(i2_acc)
        extra["i3"], extra["i3_std_error"] = stats(i3_acc)
    (i0, i0_se), (i1, i1_se) = stats(i0_acc), stats(i1_acc)
    return FeynmanKacReport(
        i0=i0, i0_std_error=i0_se, i1=i1, i1_std_error=i1_se,
        delta=float(delta), n_paths=int(n_paths),
        control_source=("full_delta field" if control_source == "delta"
                        else "limit field (proxy)"),
        **extra,
    )


@functools.cache
def full_surface(params, grid):
    """The moving-factor surface at delta = 0.2 with every slice kept."""
    return solve_hjb_2d(params.with_delta(0.2), BUTTERFLY, grid,
                        store_slices=True, max_kept_slices=10**9)


class TestFeynmanKacTerms:
    def setup_method(self):
        self.params = mk_params(delta=0.2)
        self.grid = mk_grid(self.params, x_max=160.0, n_x=79, v_min=-1.5,
                            v_max=-0.5, n_v=7)
        self.p0 = solve_bsb_1d(self.params, BUTTERFLY, self.grid,
                               store_slices=True, max_kept_slices=10**9)
        self.p1 = solve_corrector(self.params, BUTTERFLY, self.grid, self.p0,
                                  store_slices=True, max_kept_slices=10**9)

    def run_terms(self, **overrides):
        kwargs = dict(params=self.params, payoff=BUTTERFLY, grid=self.grid,
                      p0=self.p0, p1=self.p1, delta=0.2, n_paths=2000,
                      n_steps=40, seed=11, point=(100.0, -1.0))
        kwargs.update(overrides)
        return feynman_kac_terms(**kwargs)

    def test_basic_report(self):
        """The estimator returns finite leading terms with standard errors."""
        report = self.run_terms()
        assert np.isfinite(report.i0)
        assert np.isfinite(report.i1)
        assert report.i0_std_error > 0.0
        assert report.i1_std_error > 0.0
        assert report.n_paths == 2000
        assert report.delta == 0.2
        assert report.control_source == "full_delta field"
        assert report.i2 is None and report.i3 is None

    def test_degenerate_interval_terms_vanish_exactly(self):
        """With a one-point multiplier interval both leading terms are zero."""
        params = mk_params(sigma_min=0.15, sigma_max=0.15, delta=0.2)
        grid = mk_grid(params, x_max=160.0, n_x=79, v_min=-1.5, v_max=-0.5,
                       n_v=7)
        p0 = solve_bsb_1d(params, BUTTERFLY, grid, store_slices=True,
                          max_kept_slices=10**9)
        p1 = solve_corrector(params, BUTTERFLY, grid, p0, store_slices=True,
                             max_kept_slices=10**9)
        report = feynman_kac_terms(params, BUTTERFLY, grid, p0, p1, 0.2,
                                   n_paths=500, n_steps=20, seed=3,
                                   point=(100.0, -1.0))
        assert report.i0 == 0.0
        assert report.i1 == 0.0
        assert report.i0_std_error == 0.0
        assert report.i1_std_error == 0.0

    def test_higher_terms_on_request(self):
        """include_higher adds the delta and delta^{3/2} weighted terms."""
        report = self.run_terms(include_higher=True, n_paths=500, n_steps=20)
        assert np.isfinite(report.i2)
        assert np.isfinite(report.i3)
        assert report.i2_std_error > 0.0
        assert report.as_dict()["i2"] == report.i2

    def test_determinism_and_presolved_surface(self):
        """A pre-solved moving-factor surface reproduces the internal solve."""
        report = self.run_terms()
        again = self.run_terms()
        assert report == again
        params_d = dataclasses.replace(self.params, delta=0.2)
        p_delta = solve_hjb_2d(params_d, BUTTERFLY, self.grid,
                               store_slices=True, max_kept_slices=2 * 40 + 1)
        explicit = self.run_terms(p_delta=p_delta)
        assert explicit.i0 == report.i0
        assert explicit.i1 == report.i1

    @pytest.mark.parametrize("control_source", ["delta", "p0"])
    @pytest.mark.parametrize("include_higher", [True, False])
    def test_equals_the_gather_loop(self, control_source, include_higher):
        """Flat reads give exactly the terms of the 2-D gather loop, paths
        leaving the grid included."""
        params_d = dataclasses.replace(self.params, delta=0.2)
        p_delta = solve_hjb_2d(params_d, BUTTERFLY, self.grid,
                               store_slices=True, max_kept_slices=2 * 30 + 1)
        kwargs = dict(delta=0.2, n_paths=1500, n_steps=30, seed=17,
                      point=(150.0, -1.0), control_source=control_source,
                      include_higher=include_higher)
        got = self.run_terms(p_delta=p_delta, **kwargs)
        want = gather_feynman_kac(self.params, self.grid, self.p0, self.p1,
                                  p_delta, **kwargs)
        assert got == want
        assert got.i0 != 0.0

    @settings(max_examples=20, deadline=None)
    @given(control_source=st.sampled_from(["delta", "p0"]),
           include_higher=st.booleans(),
           n_paths=st.sampled_from([1, 2, 3, 41]) | st.integers(1, 90),
           n_steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           chunk_paths=st.sampled_from([None, 7]))
    def test_forked_equals_in_process_and_the_gather_loop(
        self, control_source, include_higher, n_paths, n_steps, seed,
        chunk_paths
    ):
        """The path halves, forked or in-process, give exactly the terms
        of the gather loop over every path, paths leaving the grid
        included."""
        p_delta = full_surface(self.params, self.grid)
        kwargs = dict(delta=0.2, n_paths=n_paths, n_steps=n_steps, seed=seed,
                      point=(150.0, -1.0), control_source=control_source,
                      include_higher=include_higher)
        with pytest.MonkeyPatch.context() as mp:
            if chunk_paths is not None:
                mp.setattr(sde, "_CHUNK_CELLS", chunk_paths * n_steps)
            (got, n_forks), (alone, _) = (
                forked(fork, self.run_terms, p_delta=p_delta, **kwargs)
                for fork in (True, False)
            )
            # The reference's n_paths = 1 standard errors are NaN.
            if n_paths >= 2:
                want = gather_feynman_kac(self.params, self.grid, self.p0,
                                          self.p1, p_delta, **kwargs)
                assert got == want
        assert n_forks == int(n_paths >= 2)  # one march, the terms inside
        assert_no_children()
        assert got == alone

    def test_killed_child_is_redone_in_process(self, monkeypatch):
        """A child SIGKILLed halfway through its terms gives the
        in-process report: the redone half starts from zero."""
        p_delta = full_surface(self.params, self.grid)
        kwargs = dict(p_delta=p_delta, n_paths=301, n_steps=12,
                      include_higher=True)
        want, _ = forked(False, self.run_terms, **kwargs)
        parent = os.getpid()
        reads = []
        bilinear_read = convergence._bilinear_read

        def dying(*args):
            reads.append(1)
            if os.getpid() != parent and len(reads) == 40:
                os.kill(os.getpid(), signal.SIGKILL)
            return bilinear_read(*args)

        monkeypatch.setattr(convergence, "_bilinear_read", dying)
        got, n_forks = forked(True, self.run_terms, **kwargs)
        assert n_forks == 1  # one march, the terms inside
        assert_no_children()
        assert got == want

    @pytest.mark.parametrize("bad", [dict(seed=-1), dict(seed=1.5),
                                     dict(seed=True), dict(seed=2**128),
                                     dict(n_paths=0)])
    def test_bad_run_is_refused_before_the_solve(self, monkeypatch, bad):
        """A seed Philox cannot take, or an empty batch, raises before
        the moving-factor surface is solved."""
        solves = []
        monkeypatch.setattr(convergence, "solve_hjb_2d",
                            lambda *args, **kwargs: solves.append(1))
        with pytest.raises(ValueError, match="seed must be an integer|n_paths"):
            self.run_terms(**bad)
        assert solves == []

    @settings(max_examples=8, deadline=None)
    @given(n_paths=st.sampled_from([1, 2, 41]) | st.integers(1, 90),
           n_steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           include_higher=st.booleans())
    def test_own_solve_forked_equals_in_process(
        self, n_paths, n_steps, seed, include_higher
    ):
        """With its own solve, the terms are the same forked and
        in-process; only a path half forks, after the solve."""
        kwargs = dict(n_paths=n_paths, n_steps=n_steps, seed=seed,
                      include_higher=include_higher)
        reports = []
        for fork in (True, False):
            report, n_forks = forked(fork, self.run_terms, **kwargs)
            reports.append(report)
            assert n_forks == fork * (n_paths >= 2)
        assert_no_children()
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("error", [
        StabilityError("n_t too small", min_time_steps=10),
        NonFiniteError("NaN at step 3", time_index=3),
    ])
    def test_failed_solve_leaves_no_child(self, monkeypatch, error):
        """A solve that raises does so before any child forks."""
        def failing_solve(*args, **kwargs):
            raise error

        monkeypatch.setattr(convergence, "solve_hjb_2d", failing_solve)
        started = count_forks(monkeypatch)
        with pytest.raises(type(error)):
            forked(True, self.run_terms)
        assert started == []
        assert_no_children()

    def test_terms_peak_below_one_path_array(self, monkeypatch):
        """The terms accumulate inside the policy march: no path batch is
        made, and the traced peak stays below one ``(n_steps + 1,
        n_paths)`` float64 array."""
        p_delta = full_surface(self.params, self.grid)
        n_paths, n_steps = 2000, 40
        kwargs = dict(p_delta=p_delta, n_paths=n_paths, n_steps=n_steps,
                      include_higher=True)
        want = self.run_terms(**kwargs)  # also loads scipy
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 64 * n_steps)
        got, peak = in_process_peak(self.run_terms, **kwargs)
        assert got == want
        assert peak < (n_steps + 1) * n_paths * 8

    def test_p_delta_at_another_delta_is_refused(self):
        """A p_delta solved at delta 0.5 is refused for the terms at 0.2,
        not reported under 0.2."""
        p_delta = solve_hjb_2d(self.params.with_delta(0.5), BUTTERFLY,
                               self.grid, store_slices=True,
                               max_kept_slices=10**9)
        with pytest.raises(ValueError, match="p_delta surface .*delta=0.2"):
            self.run_terms(p_delta=p_delta)

    @pytest.mark.parametrize("name, other", [
        ("p0", dict(sigma_min=0.05)), ("p0", dict(rho=-0.5)),
        ("p1", dict(sigma_max=0.3)), ("p1", dict(rho=-0.5)),
    ])
    def test_surface_under_other_parameters_is_refused(self, monkeypatch,
                                                       name, other):
        """A p0 or p1 solved under other bounds or another correlation is
        refused before the 2-D solve and before any fork; a p0 or p1 at
        another delta is not."""
        surface = getattr(self, name)
        moved = dataclasses.replace(
            surface, params=dataclasses.replace(surface.params, **other))

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the parameter check")

        started = count_forks(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(sde, "_fork_ok", lambda: True)
            m.setattr(convergence, "solve_hjb_2d", no_solve)
            with pytest.raises(ValueError, match=f"mismatch with the {name} "
                               r"surface \(only delta may differ\)"):
                self.run_terms(**{name: moved})
        assert started == []
        at_other_delta = dataclasses.replace(
            surface, params=surface.params.with_delta(0.05))
        want = self.run_terms(n_paths=200, n_steps=10)
        assert self.run_terms(n_paths=200, n_steps=10,
                              **{name: at_other_delta}) == want

    def test_one_path_has_zero_standard_errors(self):
        """One path gives zero standard errors, as estimate_moment does,
        and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = self.run_terms(n_paths=1, n_steps=10, include_higher=True)
        assert (report.i0_std_error, report.i1_std_error, report.i2_std_error,
                report.i3_std_error) == (0.0, 0.0, 0.0, 0.0)
        assert all(map(math.isfinite, (report.i0, report.i1, report.i2,
                                       report.i3)))

    def test_limit_field_proxy_is_flagged(self):
        """Driving paths with the limit field is recorded in the report."""
        report = self.run_terms(control_source="p0", n_paths=500, n_steps=20)
        assert report.control_source == "limit field (proxy)"

    def test_input_validation(self):
        """Wrong surface kinds, grids, or flags are rejected."""
        params_d = dataclasses.replace(self.params, delta=0.2)
        full = solve_hjb_2d(params_d, BUTTERFLY, self.grid)
        with pytest.raises(ValueError, match="limit family"):
            self.run_terms(p0=full)
        with pytest.raises(ValueError, match="corrector"):
            self.run_terms(p1=self.p0)
        other = mk_grid(self.params, x_max=150.0, n_x=74, v_min=-1.5,
                        v_max=-0.5, n_v=7)
        with pytest.raises(ValueError, match="sweep grid"):
            self.run_terms(grid=other)
        with pytest.raises(ValueError, match="control_source"):
            self.run_terms(control_source="nearest")
        sparse = solve_bsb_1d(self.params, BUTTERFLY, self.grid)
        with pytest.raises(ValueError, match="store_slices"):
            self.run_terms(p0=sparse)
