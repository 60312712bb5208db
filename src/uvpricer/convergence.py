"""Convergence experiments: delta sweeps, slope fits, and error terms.

The worst-case price converges to its frozen-factor limit as the factor
slows down; this module measures that convergence.  A sweep solves the
moving-factor equation for each delta and the limit equation once,
tabulates the pointwise errors, and fits a log-log slope over the rows
that sit safely above the scheme's noise floor.  The corrector sweep
subtracts the first-order term as well and checks that the remainder
scales linearly.  The Feynman-Kac estimator evaluates the probabilistic
representation of that remainder: along worst-case paths, the leading
terms are time integrals of control-disagreement indicators weighted by
Greeks of the limit and corrector surfaces.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, NonFiniteError, StabilityError
from .hjb import (
    _full_values,
    _kept_indices,
    _limit_and_corrector,
    _require_stability,
    min_time_steps,
    solve_bsb_1d,
    solve_hjb_2d,
)
from .model import GridSpec, ModelParams, PiecewiseLinearPayoff
from .sde import (
    _check_run,
    _DrawAhead,
    _Job,
    _march_paths,
    _mean_and_se,
    _shared,
)
from .surface import (
    PriceSurface,
    _bilinear_read,
    _bilinear_weights,
    _control_sharing,
    _require_dense_slices,
    _SliceMemo,
    _write_header,
    _write_json,
    greeks,
)


def _json_safe(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _usable(rows) -> tuple:
    """The rows left in the fit: those not excluded by the noise floor."""
    return tuple(row for row in rows if not row.excluded)


def _report_dict(report, **specific) -> dict:
    """``as_dict`` of a sweep report: its own keys plus the shared ones."""
    return {
        "point": list(report.point),
        "rows": [dataclasses.asdict(row) for row in report.rows],
        **specific,
        "n_usable_rows": len(report.usable_rows),
        "noise_floor": report.noise_floor,
        "grid": dataclasses.asdict(report.grid),
        "params": dataclasses.asdict(report.params),
    }


def _write_rows(path, header_lines, row_type, rows) -> None:
    """Write report rows as CSV: the field names, then ``repr`` of every
    value field and ``int`` of the closing ``excluded`` flag."""
    names = [f.name for f in dataclasses.fields(row_type)][:-1]
    with open(path, "w", newline="") as fh:
        _write_header(fh, header_lines)
        fh.write(",".join(names) + ",excluded\n")
        for row in rows:
            cells = [repr(getattr(row, name)) for name in names]
            fh.write(",".join(cells) + f",{int(row.excluded)}\n")


def fit_loglog(deltas, abs_errors) -> tuple[float, float]:
    """Least-squares slope and intercept of log|error| against log delta.

    Needs one error per delta, at least two distinct deltas, and every
    delta and error finite and positive.
    """
    d = np.asarray(deltas, dtype=float)
    e = np.asarray(abs_errors, dtype=float)
    if d.ndim != 1 or d.shape != e.shape:
        raise ValueError(f"need one error per delta, got {np.size(d)} deltas "
                         f"and {np.size(e)} errors")
    if np.unique(d).size < 2:
        raise ValueError("need at least two points with distinct deltas for "
                         f"a slope fit, got deltas {d.tolist()}")
    if not np.all(np.isfinite(d) & (d > 0.0)):
        raise ValueError(f"deltas must be finite and positive, got {d.tolist()}")
    if not np.all(np.isfinite(e) & (e > 0.0)):
        raise ValueError("errors must be finite and positive for a log-log "
                         f"fit, got {e.tolist()}")
    slope, intercept = np.polyfit(np.log(d), np.log(e), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class SweepRow:
    """One delta of a convergence sweep, evaluated at the report's point."""

    delta: float
    p_delta: float
    p0: float
    error: float
    abs_error: float
    excluded: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Delta-sweep errors at a fixed point with a fitted log-log slope.

    Rows are ordered by descending delta.  ``deltas_excluded`` lists the
    rows left out of the fit because their error is within a factor ten
    of ``noise_floor`` (the discretization error measured by re-solving
    the smallest delta on a refined grid).
    """

    point: tuple[float, float, float]
    rows: tuple[SweepRow, ...]
    slope: float
    intercept: float
    deltas_excluded: tuple[float, ...]
    noise_floor: float
    grid: GridSpec
    params: ModelParams

    def __post_init__(self):
        deltas = [row.delta for row in self.rows]
        if deltas != sorted(deltas, reverse=True):
            raise ValueError("rows must be sorted by descending delta")

    @property
    def usable_rows(self) -> tuple[SweepRow, ...]:
        return _usable(self.rows)

    def to_csv(self, path, header_lines=()) -> None:
        """Write ``delta,p_delta,p0,error,abs_error,excluded`` rows."""
        _write_rows(path, header_lines, SweepRow, self.rows)

    def as_dict(self) -> dict:
        return _report_dict(
            self,
            slope=_json_safe(self.slope),
            intercept=_json_safe(self.intercept),
            deltas_excluded=list(self.deltas_excluded),
        )

    def to_json(self, path, extra: dict | None = None) -> None:
        _write_json(path, {**self.as_dict(), **(extra or {})})

    def to_plot_script(self, path, csv_name: str, header_lines=()) -> None:
        """Emit a gnuplot script rendering |error| against delta, log-log."""
        fit = f"exp({self.intercept!r}) * x**({self.slope!r})"
        lines = [
            "set datafile separator ','",
            "set datafile commentschars '#'",
            "set logscale xy",
            "set xlabel 'delta'",
            "set ylabel '|P_delta - P_0|'",
            "set key left top",
            f"plot '{csv_name}' every ::1 using 1:5 with points pt 7 "
            "title 'measured', \\",
            f"     {fit} with lines title 'fit, slope={self.slope:.3f}'",
        ]
        with open(path, "w") as fh:
            _write_header(fh, header_lines)
            fh.write("\n".join(lines) + "\n")


def _attach_delta(exc: Exception, delta: float) -> None:
    note = f"while solving at delta={delta!r}"
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} ({note})",) + exc.args[1:]
    else:
        exc.args = exc.args + (note,)


def _check_sweep_inputs(grid: GridSpec, point, deltas, noise_floor) -> list[float]:
    x0, v0 = float(point[0]), float(point[1])
    if not grid.contains(x0, v0):
        raise ValueError(f"evaluation point ({x0}, {v0}) lies outside the grid")
    ds = [float(d) for d in deltas]
    if not ds:
        raise ValueError("delta list is empty")
    if len(set(ds)) != len(ds):
        raise ValueError(f"deltas must be distinct, got {ds}")
    if any(not 0.0 < d <= 1.0 for d in ds):
        raise ValueError(f"deltas must lie in (0, 1], got {ds}")
    if noise_floor is not None and not 0.0 <= noise_floor < math.inf:
        raise ValueError(f"noise_floor must be finite and >= 0, got {noise_floor}")
    return sorted(ds, reverse=True)


def _refined_for_floor(params: ModelParams, grid: GridSpec) -> GridSpec:
    fine = grid.refined(factor_x=2)
    return dataclasses.replace(
        fine, n_t=min_time_steps(params, fine, "full")
    )


def _remainder(p_delta: float, p0: float, p1: float | None, delta: float) -> float:
    """``p_delta - p0``, less ``sqrt(delta) p1`` when a corrector is given."""
    error = p_delta - p0
    return error if p1 is None else error - math.sqrt(delta) * p1


def _limit_values(params_base, payoff, grid, x0, v0, p1_delta,
                  cell_average_terminal, corrector):
    """``(P0, P1, P1 surface)`` at ``(0, x0, v0)``; the last two are None
    unless ``corrector``, whose march carries the limit beside it."""
    if not corrector:
        p0 = solve_bsb_1d(params_base, payoff, grid,
                          cell_average_terminal=cell_average_terminal)
        return p0.value_at(0, x0, v0), None, None
    p0_val, p1 = _limit_and_corrector(params_base, payoff, grid,
                                      params_base.with_delta(p1_delta), x0, v0,
                                      cell_average_terminal)
    return p0_val, p1.value_at(0, x0, v0), p1


def _solve_deltas(params_base, payoff, grid, x0, v0, ds, cell_average_terminal,
                  out):
    """Write ``P_delta(0, x0, v0)`` of ``ds[j]`` into ``out[j]``, from one
    march of all of them; a failing solve names its delta.

    Stability is checked for every delta first, in the order given, so
    the first delta that fails it is the one named.
    """
    for d in ds:
        try:
            _require_stability(params_base.with_delta(d), grid, "full")
        except StabilityError as exc:
            _attach_delta(exc, d)
            raise
    kept = _kept_indices(grid.n_t, False, 2)
    try:
        values = _full_values(params_base, ds, payoff, grid, kept,
                              cell_average_terminal)
    except NonFiniteError as exc:
        _attach_delta(exc, ds[exc.stack_index])
        raise
    for j, d in enumerate(ds):
        out[j] = PriceSurface(values=values[:, :, j], grid=grid,
                              params=params_base.with_delta(d),
                              kind="full_delta",
                              kept_times=kept).value_at(0, x0, v0)


def _sweep(params_base, payoff, grid, point, deltas, cell_average_terminal,
           noise_floor, corrector):
    """Shared core of both sweeps.

    The plain order solves the limit (and, with ``corrector``, the
    corrector) once, the moving-factor equation for all deltas in one
    stacked march and, unless the noise floor is given, the smallest
    delta and the limit on a refined grid (half the x-spacing, step count
    re-matched to ``min_time_steps``): the floor is the change of the
    smallest delta's remainder.  Returns ``(point, rows, noise_floor,
    p1)`` with rows ``(delta, p_delta, p0, p1, remainder, excluded)`` by
    descending delta; a row is excluded when its remainder is below ten
    times the floor.

    One :class:`_Job` runs beside this process, which makes the rest:
    with the floor measured, the refined pair, the smallest delta's march
    and then the limit (with ``corrector``, the stack of ``P0`` and
    ``P1``), 103 + 72 ms on the ``pde_sweep`` grid against the caller's
    39 + 153 ms for the limit and the delta stack; with the floor given,
    all but the smallest ``(m - 1) // 2`` of the ``m`` deltas, as the
    limit costs about one lone delta march.  Any failure kills the job
    and replays the plain order here, which raises its error or, after a
    one-off failure, returns its numbers.
    """
    ds = _check_sweep_inputs(grid, point, deltas, noise_floor)
    x0, v0 = float(point[0]), float(point[1])
    m, d_min = len(ds), ds[-1]
    measure = noise_floor is None
    fine = (_refined_for_floor(params_base.with_delta(d_min), grid)
            if measure else None)

    def limit(g, p1_delta):
        return _limit_values(params_base, payoff, g, x0, v0, p1_delta,
                             cell_average_terminal, corrector)

    def march(g, lo, hi, out):
        _solve_deltas(params_base, payoff, g, x0, v0, ds[lo:hi],
                      cell_average_terminal, out)

    def refine(out):
        # P_delta, P0 and P1 (0 without a corrector: it subtracts nothing)
        # of the smallest delta on the refined grid.
        march(fine, m - 1, m, out[:1])
        try:
            p0_fine, p1_fine, _ = limit(fine, d_min)
        except Exception as exc:
            _attach_delta(exc, d_min)
            raise
        out[1:] = p0_fine, 0.0 if p1_fine is None else p1_fine

    # P_delta per delta, then the refined triple; the job marches
    # ds[:split] and the caller ds[split:].
    p_out = _shared((m + 3,))
    split = 0 if measure else m - (m - 1) // 2
    job = (_Job(refine, p_out[m:]) if measure
           else _Job(march, grid, 0, split, p_out[:split]))
    try:
        base = limit(grid, ds[0])
        if split < m:
            march(grid, split, m, p_out[split:m])
        job.wait()
    except Exception:
        # Answered by the replay: its own error, or its numbers.
        base = None
    finally:
        job.cancel()
    if base is None:
        # The plain order, in this process.
        base = limit(grid, ds[0])
        march(grid, 0, m, p_out[:m])
        if measure:
            refine(p_out[m:])

    p0_val, p1_val, p1 = base
    if measure:
        noise_floor = abs(_remainder(*p_out[m:].tolist(), d_min)
                          - _remainder(float(p_out[m - 1]), p0_val, p1_val,
                                       d_min))
    rows = []
    for d, p_d in zip(ds, p_out[:m].tolist()):
        e = _remainder(p_d, p0_val, p1_val, d)
        excluded = abs(e) < 10.0 * noise_floor or e == 0.0
        rows.append((d, p_d, p0_val, p1_val, e, excluded))
    return (0.0, x0, v0), rows, float(noise_floor), p1


def run_delta_sweep(
    params_base: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    point: tuple[float, float],
    deltas,
    cell_average_terminal: bool = False,
    noise_floor: float | None = None,
) -> ConvergenceReport:
    """Solve the moving-factor and limit equations across a delta grid.

    Both surfaces are evaluated at ``(t=0, point)``; the error column is
    their signed difference.  Unless supplied, the noise floor is the
    change of the error at the smallest delta when the grid is refined
    (half the x-spacing, step count re-matched to ``min_time_steps``):
    shared discretization error cancels in the difference, so the floor
    isolates genuine scheme noise.  Rows with ``|error|`` below ten times
    the floor are excluded from the slope fit; at least two rows must
    survive.
    """
    point, values, noise_floor, _ = _sweep(
        params_base, payoff, grid, point, deltas, cell_average_terminal,
        noise_floor, corrector=False,
    )
    rows = tuple(
        SweepRow(delta=d, p_delta=pd, p0=p0, error=err, abs_error=abs(err),
                 excluded=excluded)
        for d, pd, p0, _, err, excluded in values
    )
    usable = [row for row in rows if not row.excluded]
    report_kwargs = dict(
        point=point,
        rows=rows,
        deltas_excluded=tuple(row.delta for row in rows if row.excluded),
        noise_floor=noise_floor,
        grid=grid,
        params=params_base,
    )
    if len(usable) < 2:
        partial = ConvergenceReport(
            slope=float("nan"), intercept=float("nan"), **report_kwargs
        )
        raise FitError(
            f"only {len(usable)} of {len(rows)} sweep rows sit above the "
            f"noise floor {noise_floor!r}; need at least 2 for a slope fit",
            report=partial,
        )
    slope, intercept = fit_loglog(
        [row.delta for row in usable], [row.abs_error for row in usable]
    )
    return ConvergenceReport(slope=slope, intercept=intercept, **report_kwargs)


@dataclass(frozen=True)
class CorrectorRow:
    """One delta of a corrector sweep at the report's point."""

    delta: float
    p_delta: float
    p0: float
    p1: float
    e_delta: float
    e_over_delta: float
    excluded: bool


@dataclass(frozen=True)
class CorrectorReport:
    """Remainder after subtracting the first-order correction, per delta.

    ``ratio`` is max/min of ``|e_delta|/delta`` over the usable rows; a
    bounded ratio across a delta sweep is the numerical signature of the
    linear scaling of the remainder.  ``p1_surface`` is the corrector
    surface the sweep solved (not part of the serialized report).
    """

    point: tuple[float, float, float]
    rows: tuple[CorrectorRow, ...]
    noise_floor: float
    grid: GridSpec
    params: ModelParams
    p1_surface: PriceSurface | None = field(default=None, repr=False,
                                            compare=False)

    @property
    def usable_rows(self) -> tuple[CorrectorRow, ...]:
        return _usable(self.rows)

    @property
    def ratio(self) -> float:
        scaled = [abs(row.e_over_delta) for row in self.usable_rows]
        if len(scaled) < 2:
            return float("nan")
        return max(scaled) / min(scaled)

    def to_csv(self, path, header_lines=()) -> None:
        """Write ``delta,p_delta,p0,p1,e_delta,e_over_delta,excluded`` rows."""
        _write_rows(path, header_lines, CorrectorRow, self.rows)

    def as_dict(self) -> dict:
        return _report_dict(self, ratio=_json_safe(self.ratio))

    def to_json(self, path, extra: dict | None = None) -> None:
        _write_json(path, {**self.as_dict(), **(extra or {})})


def corrector_sweep(
    params_base: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    point: tuple[float, float],
    deltas,
    cell_average_terminal: bool = False,
    noise_floor: float | None = None,
) -> CorrectorReport:
    """Tabulate the remainder after the square-root correction per delta.

    The limit and corrector surfaces are solved once (neither depends on
    delta); the moving-factor equation is solved for all deltas in one
    march.  The remainder is
    ``p_delta - p0 - sqrt(delta) p1`` at ``(0, point)``.  The noise floor
    is measured like :func:`run_delta_sweep`, on the remainder itself.
    """
    point, values, noise_floor, p1_surface = _sweep(
        params_base, payoff, grid, point, deltas, cell_average_terminal,
        noise_floor, corrector=True,
    )
    rows = tuple(
        CorrectorRow(delta=d, p_delta=pd, p0=p0, p1=p1, e_delta=e,
                     e_over_delta=e / d, excluded=excluded)
        for d, pd, p0, p1, e, excluded in values
    )
    return CorrectorReport(point=point, rows=rows, noise_floor=noise_floor,
                           grid=grid, params=params_base,
                           p1_surface=p1_surface)


@dataclass(frozen=True)
class FeynmanKacReport:
    """Monte-Carlo estimates of the leading error-representation terms."""

    i0: float
    i0_std_error: float
    i1: float
    i1_std_error: float
    delta: float
    n_paths: int
    control_source: str
    i2: float | None = None
    i2_std_error: float | None = None
    i3: float | None = None
    i3_std_error: float | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def feynman_kac_terms(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    p0: PriceSurface,
    p1: PriceSurface,
    delta: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    point: tuple[float, float] = (100.0, -1.0),
    p_delta: PriceSurface | None = None,
    control_source: str = "delta",
    include_higher: bool = False,
) -> FeynmanKacReport:
    """Estimate the error-representation integrals along worst-case paths.

    The asset follows the model dynamics under the maximizing multiplier
    field of the moving-factor solve (``control_source="p0"`` substitutes
    the limit field, flagged in the report, for deltas too small to
    matter).  The leading integrand pairs the control-disagreement
    indicator with Greeks of the limit surface along the path; all
    curvatures are read by bilinear interpolation, which keeps the
    sub-grid shift of the curvature sign-change line — the disagreement
    set lives exactly on that scale — visible to the indicators.  The
    next order adds the corrector curvature.  Time integrals use the
    trapezoid rule on the simulation times; ``include_higher`` also
    returns the two remaining (delta- and delta^{3/2}-weighted) terms.
    """
    if p0.kind != "limit_p0" or p0.v_constant is not None:
        raise ValueError("p0 must be the per-v-node limit family")
    if p1.kind != "corrector_p1":
        raise ValueError(f"p1 must be a corrector surface, got {p1.kind!r}")
    if p0.grid != grid or p1.grid != grid:
        raise ValueError("surfaces must live on the sweep grid")
    if control_source not in ("delta", "p0"):
        raise ValueError(f"control_source must be 'delta' or 'p0', got "
                         f"{control_source!r}")
    if p_delta is not None and (p_delta.kind != "full_delta"
                                or p_delta.grid != grid):
        raise ValueError("p_delta must be a full_delta surface on the grid")
    x0, v0 = float(point[0]), float(point[1])
    _check_run(n_paths, n_steps, grid.T, x0, v0, seed)
    for surface, name in ((p0, "p0"), (p1, "p1")):
        _require_dense_slices(surface, n_steps, name)
    params_d = params.with_delta(float(delta))
    for surface, name in ((p0, "p0"), (p1, "p1")):
        if surface.params.with_delta(params.delta) != params:
            raise ValueError(f"parameter mismatch with the {name} surface "
                             "(only delta may differ)")
    if p_delta is not None and p_delta.params != params_d:
        raise ValueError("parameter mismatch with the p_delta surface (it "
                         f"must be solved under params at delta={delta!r})")
    normals = {}
    if p_delta is None:
        # The draws read no surface, so a forked job makes them while the
        # 2-D solve runs.
        with _DrawAhead(seed, n_paths, n_steps) as draws:
            p_delta = solve_hjb_2d(
                params_d, payoff, grid, store_slices=True,
                max_kept_slices=2 * n_steps + 1,
            )
            normals = draws.ready()
    _require_dense_slices(p_delta, n_steps, "p_delta")

    greeks_d, greeks_0, greeks_1 = (
        _SliceMemo(surface, greeks) for surface in (p_delta, p0, p1)
    )
    policy = _control_sharing(greeks_d if control_source == "delta" else greeks_0,
                              params_d)
    dt = grid.T / n_steps
    lo, hi = params.sigma_min, params.sigma_max
    d_lin = hi - lo
    d_sq = hi * hi - lo * lo
    rho_sigma = params.rho * params.sigma

    # One accumulator row per term, one column per path.
    acc = _shared((4 if include_higher else 2, n_paths))

    def consumer(rows, _):
        # Zeroed per chunk: a half redone after a failed child starts at 0.
        terms = acc[:, rows]
        terms[:] = 0.0

        def visit(k, x, v):
            t = k * dt
            w = dt * (0.5 if k in (0, n_steps) else 1.0)
            cell = _bilinear_weights(grid, x, v)
            g_d = greeks_d(t)
            g_0 = greeks_0(t)
            gamma_d = _bilinear_read(g_d.gamma, *cell)
            gamma_0 = _bilinear_read(g_0.gamma, *cell)
            ind = (
                (gamma_d >= 0.0).astype(float) - (gamma_0 >= 0.0).astype(float)
            )
            ev = np.exp(v)
            g_1 = greeks_1(t)
            base = 0.5 * d_sq * ind * ev * ev * x * x
            terms[0] += w * base * gamma_0
            terms[1] += w * (
                d_lin * ind * rho_sigma * ev * x * _bilinear_read(g_0.vanna, *cell)
                + base * _bilinear_read(g_1.gamma, *cell)
            )
            if include_higher:
                q_star = np.where(gamma_d >= 0.0, hi, lo)
                drift_v = params.a - params.b * np.exp(params.alpha * v)
                terms[2] += w * (
                    q_star * rho_sigma * ev * x * _bilinear_read(g_1.vanna, *cell)
                    + 0.5 * params.sigma**2 * _bilinear_read(g_0.vomma, *cell)
                    + drift_v * _bilinear_read(g_0.vega, *cell)
                )
                terms[3] += w * (
                    0.5 * params.sigma**2 * _bilinear_read(g_1.vomma, *cell)
                    + drift_v * _bilinear_read(g_1.vega, *cell)
                )

        return visit

    _march_paths(params_d, x0, v0, policy, n_paths, n_steps, grid.T, seed,
                 consumer, normals)
    (i0, i0_se), (i1, i1_se), *higher = map(_mean_and_se, acc)
    extra = {}
    for name, (value, std_error) in zip(("i2", "i3"), higher):
        extra[name], extra[f"{name}_std_error"] = value, std_error
    return FeynmanKacReport(
        i0=i0, i0_std_error=i0_se, i1=i1, i1_std_error=i1_se,
        delta=float(delta), n_paths=int(n_paths),
        control_source=("full_delta field" if control_source == "delta"
                        else "limit field (proxy)"),
        **extra,
    )
