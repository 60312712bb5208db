"""Explicit finite-difference solvers for the pricing PDEs.

Three backward-in-time marches share one discretization (central second
differences, 4-point cross stencil, drift-sign upwinding, explicit Euler
steps):

* :func:`solve_hjb_2d` — the full worst-case pricing equation in (x, v)
  with the pointwise supremum over the volatility multiplier,
* :func:`solve_bsb_1d` — the frozen-factor limit equation, where the factor
  level only enters through ``e^{2v}`` so each v-node solves independently,
* :func:`solve_corrector` — the linear first-order correction PDE driven by
  the mixed derivative of a stored limit solve.

A delta sweep marches its same-grid full solves in stacks, and reads its
limit price at a point from the two v-columns that bracket it; both give
the lone solves' numbers bit for bit.

Boundary treatment: at ``x_min = 0`` the equation degenerates and is solved
exactly; at ``x_max`` curvature is set to zero (linear extrapolation); the
v-edges use a vanishing second derivative with one-sided first derivatives.
All solves refuse to run when the requested step count violates the explicit
stability bound, reporting the minimum admissible ``n_t``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NonFiniteError, StabilityError
from .model import GridSpec, ModelParams, PiecewiseLinearPayoff
from .surface import (PriceSurface, _bilinear, _diff, _diff2, _nearest_pos,
                      _q_sup_bare)


def min_time_steps(
    params: ModelParams, grid: GridSpec, kind: str = "full", v: float | None = None
) -> int:
    """Smallest admissible number of explicit time steps for the grid.

    Sums the worst-case diffusion, cross, drift, and discounting rates over
    the grid (a conservative bound: the sum dominates the max) and applies
    the grid's CFL safety factor.  ``kind`` selects which terms are active:
    ``"full"`` includes the factor direction, ``"bsb"`` and ``"corrector"``
    only the asset direction (with ``e^{2v}`` at ``v`` when given, else at
    the top of the v-range).
    """
    if kind not in ("full", "bsb", "corrector"):
        raise ValueError(f"unknown solver kind {kind!r}")
    if v is not None and not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    x_peak = grid.x_nodes[-2]
    v_peak = grid.v_max if v is None else float(v)
    rate = params.sigma_max**2 * math.exp(2.0 * v_peak) * x_peak**2 / grid.dx**2
    rate += params.r * x_peak / grid.dx + params.r
    if kind == "full":
        rate += params.delta * params.sigma**2 / grid.dv**2
        rate += (
            math.sqrt(params.delta)
            * params.sigma_max
            * abs(params.rho)
            * params.sigma
            * math.exp(grid.v_max)
            * x_peak
            / (grid.dx * grid.dv)
        )
        drift = params.delta * np.abs(
            params.a - params.b * np.exp(params.alpha * grid.v_nodes)
        )
        rate += float(drift.max()) / grid.dv
    return max(1, math.ceil(grid.T * rate / grid.cfl_safety))


def _require_stability(params, grid, kind, v=None) -> None:
    needed = min_time_steps(params, grid, kind, v)
    if grid.n_t < needed:
        raise StabilityError(
            f"n_t={grid.n_t} violates the explicit stability bound for this "
            f"grid; need at least {needed} time steps",
            min_time_steps=needed,
        )


def _kept_indices(n_t: int, store_slices: bool, max_kept: int) -> tuple[int, ...]:
    """Ascending time indices to retain; always contains 0 and n_t."""
    if not store_slices:
        return (0, n_t) if n_t > 0 else (0,)
    stride = max(1, math.ceil(n_t / max(1, max_kept - 1)))
    kept = set(range(0, n_t, stride))
    kept.update((0, n_t))
    return tuple(sorted(kept))


def _terminal_slice(
    payoff: PiecewiseLinearPayoff, grid: GridSpec, cell_average: bool
) -> np.ndarray:
    if cell_average:
        col = np.array([payoff.average(lo, hi) for lo, hi in zip(*grid._x_cells())])
    else:
        col = np.asarray(payoff(grid.x_nodes), dtype=float)
    return np.repeat(col[:, None], grid.n_v, axis=1)


def _check_finite(P: np.ndarray, time_index: int, v_offset: int = 0) -> None:
    """Raise :class:`NonFiniteError` at the first non-finite node of ``P``.

    ``P`` is a slice ``(n_x + 2, n_v)`` or a stack of slices on its middle
    axis.  A stack reports the first slice, in stack order, that has such
    a node, as that slice's own march would; ``stack_index`` on the error
    is its place in the stack (0 for a lone slice).  ``v_offset`` is the
    full-grid index of ``P``'s first v-column, for a march over a band of
    columns.
    """
    bad = ~np.isfinite(P)
    if not bad.any():
        return
    stack_index = 0
    if bad.ndim == 3:
        stack_index = int(np.flatnonzero(bad.any(axis=(0, 2)))[0])
        bad = bad[:, stack_index]
    i, j = (int(n) for n in np.argwhere(bad)[0])
    node = (i, j + v_offset)
    err = NonFiniteError(
        f"non-finite value at time index {time_index}, node ({node[0]}, {node[1]})",
        time_index=time_index,
        node=node,
    )
    err.stack_index = stack_index
    raise err


# The v-stencils read offset-by-one slices of the flattened C-contiguous
# rows and then overwrite the two edge columns, where those slices
# straddle two rows.  The v-axis is the last one, so a stack of slices on
# a middle axis runs through them unchanged: each of its row junctions
# also falls on an edge column.


class _Views:
    """Views of one ``(n_x + 2, ...)`` march buffer ``whole``: rows ``2:``,
    ``1:-1``, ``:-2`` (``up``, ``inner``, ``down``); the flattened interior
    rows ``[2:]``, ``[1:-1]``, ``[:-2]``, ``[1:]``, ``[:-1]`` (``flat_up``,
    ``flat_mid``, ``flat_down``, ``flat_tail``, ``flat_head``); each
    x-edge row with its two inward neighbours (``first``, ``last``)."""

    def __init__(self, P: np.ndarray):
        self.whole = P
        self.up, self.inner, self.down = P[2:], P[1:-1], P[:-2]
        flat = self.inner.reshape(-1)
        self.flat_up, self.flat_mid, self.flat_down = flat[2:], flat[1:-1], flat[:-2]
        self.flat_tail, self.flat_head = flat[1:], flat[:-1]
        self.first, self.last = (P[0], P[1], P[2]), (P[-1], P[-2], P[-3])


def _pxv(d_x: np.ndarray, dv: float, out: np.ndarray):
    """A function of no arguments writing the cross derivative from the
    x-difference ``d_x`` into ``out``: central in v, first order one-sided
    at the two v-edges."""
    flat = d_x.reshape(-1)
    up, down, mid = flat[2:], flat[:-2], out.reshape(-1)[1:-1]
    two_dv = 2.0 * dv
    edges = ((out[..., 0], d_x[..., 1], d_x[..., 0]),
             (out[..., -1], d_x[..., -1], d_x[..., -2]))

    def pxv():
        _diff(up, down, two_dv, mid)
        for edge, right, left in edges:
            _diff(right, left, dv, edge)
        return out

    return pxv


def _discount(inner, xc: np.ndarray, d_x: np.ndarray, r: float):
    """Discount and drift terms ``r (x P_x - P)`` of the interior rows
    ``inner``, written over the x-difference ``d_x``."""
    np.multiply(d_x, xc, out=d_x)
    np.subtract(d_x, inner, out=d_x)
    return np.multiply(d_x, r, out=d_x)


class _Marcher:
    """Backward march of ``terminal`` under ``rhs``, with its boundary rows.

    ``rhs(V, k, out)`` writes into ``out`` the interior time derivative
    used at step ``k -> k-1``, reading the slice through its
    :class:`_Views` ``V``.
    """

    def __init__(self, params, payoff, grid, terminal, rhs, v_offset=0):
        self.params = params
        self.grid = grid
        self.terminal = terminal
        self.rhs = rhs
        self.h0 = float(payoff(grid.x_min))
        self.exact_x_min = grid.x_min == 0.0
        self.v_offset = v_offset

    def steps(self):
        """Yield ``(k, P)``, the slice at each time index ``k = n_t .. 0``.

        Two slices, their views made once, are swapped step by step: the
        step is written into the one not read, so ``P`` is the march's own
        buffer, to be read before the march goes on.  A slice is scanned
        for its first non-finite node only when its sum is not finite (any
        non-finite node makes it so).  The caller sets the floating-point
        error state: overflow and invalid operations either leave such a
        node or only overflow that sum, so :meth:`run` ignores them.
        """
        grid, rhs, h0 = self.grid, self.rhs, self.h0
        T, dt, neg_r = grid.T, grid.dt, -self.params.r
        P = self.terminal.copy()
        V, W = _Views(P), _Views(np.empty_like(P))
        step = np.empty_like(V.inner)
        yield grid.n_t, P
        for k in range(grid.n_t, 0, -1):
            rhs(V, k, step)
            np.multiply(step, dt, out=step)
            np.add(V.inner, step, out=W.inner)
            edge, near, far = W.first
            if self.exact_x_min:
                edge.fill(math.exp(neg_r * (T - (k - 1) * dt)) * h0)
            else:
                np.multiply(near, 2.0, out=edge)
                np.subtract(edge, far, out=edge)
            edge, near, far = W.last
            np.multiply(near, 2.0, out=edge)
            np.subtract(edge, far, out=edge)
            if not math.isfinite(W.whole.sum()):
                _check_finite(W.whole, k - 1, self.v_offset)
            V, W = W, V
            yield k - 1, V.whole

    def run(self, kept) -> np.ndarray:
        """The slices at the ascending time indices ``kept``, stacked."""
        pos = {k: p for p, k in enumerate(kept)}
        values = np.empty((len(kept), *self.terminal.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, P in self.steps():
                if k in pos:
                    values[pos[k]] = P
        return values


def _full_values(params, deltas, payoff, grid, kept, cell_average_terminal):
    """Kept slices of the full equation for each of ``deltas`` at once.

    The solves are stacked on the middle axis of one ``(n_x + 2, n_delta,
    n_v)`` slice and marched together; every delta keeps its own
    ``sqrt(delta)`` cross, v-diffusion and drift coefficients and its own
    upwind pick, each built by the expression a lone solve uses, so each
    delta's slices are bit for bit those of its own march.  Returns
    ``(n_kept, n_x + 2, n_delta, n_v)`` values; the stability check is the
    caller's.  A non-finite node raises for the first delta, in the order
    given, that has one (``stack_index`` on the error).
    """
    n_x, n_d, n_v = grid.n_x, len(deltas), grid.n_v
    # A lone delta marches plain (n_x + 2, n_v) slices: a singleton middle
    # axis would only slow the strided edge-column operations.
    shape = (n_x, n_d, n_v) if n_d > 1 else (n_x, n_v)

    def full(a):
        return np.broadcast_to(a, (n_x, n_d, n_v)).reshape(shape).copy()

    x_in = grid.x_nodes[1:-1][:, None, None]
    ev = np.exp(grid.v_nodes)
    xc = full(x_in)
    a_coef = 0.5 * xc**2 * ev**2
    b_coef = full(np.stack(
        [math.sqrt(d) * params.rho * params.sigma * x_in[:, 0] * ev for d in deltas],
        axis=1,
    ))
    c_vv = np.array([0.5 * d * params.sigma**2 for d in deltas])
    c_vv = c_vv[0] if n_d == 1 else full(c_vv[:, None])
    level = params.a - params.b * np.exp(params.alpha * grid.v_nodes)
    drift_v = np.stack([d * level for d in deltas])
    drift = full(drift_v)
    # Upwind read: forward difference where the drift is nonnegative,
    # backward where negative, clamped to one-sided at the v-edges; as
    # flat indices into the forward differences of the flattened rows.
    j_upwind = np.where(drift_v >= 0.0, np.arange(n_v), np.arange(n_v) - 1)
    j_upwind = np.clip(j_upwind, 0, n_v - 2)
    rows = np.arange(n_x * n_d).reshape(n_x, n_d, 1)
    upwind = (rows * n_v + j_upwind).ravel()
    dx, dv, r = grid.dx, grid.dv, params.r
    dx2, two_dx, dv2 = dx**2, 2.0 * dx, dv**2
    lo, hi = params.sigma_min, params.sigma_max
    d_x, aa, bb, work, f_lo, f_hi = (np.empty(shape) for _ in range(6))
    masks = (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
    pxv = _pxv(d_x, dv, bb)
    work_flat = work.reshape(-1)
    work_mid, work_edges = work_flat[1:-1], (work[..., 0], work[..., -1])
    fwd = np.empty(n_x * n_d * n_v - 1)

    def rhs(V, k, out):
        _diff(V.up, V.down, two_dx, d_x)
        np.multiply(_diff2(V.up, V.inner, V.down, dx2, aa), a_coef, out=aa)
        np.multiply(pxv(), b_coef, out=bb)
        _q_sup_bare(aa, bb, lo, hi, out=(out, f_lo, f_hi, *masks))
        # Central second v-difference, zero on the two v-edge columns;
        # these are added too: -0.0 + 0.0 is +0.0.
        _diff2(V.flat_up, V.flat_mid, V.flat_down, dv2, work_mid)
        for edge in work_edges:
            edge.fill(0.0)
        np.add(out, np.multiply(work, c_vv, out=work), out=out)
        _diff(V.flat_tail, V.flat_head, dv, fwd)
        fwd.take(upwind, out=work_flat, mode="clip")
        np.add(out, np.multiply(work, drift, out=work), out=out)
        if r != 0.0:
            np.add(out, _discount(V.inner, xc, d_x, r), out=out)

    terminal = _terminal_slice(payoff, grid, cell_average_terminal)
    terminal = np.repeat(terminal[:, None], n_d, axis=1)
    marcher = _Marcher(params, payoff, grid,
                       terminal.reshape(n_x + 2, *shape[1:]), rhs)
    return marcher.run(kept).reshape(len(kept), n_x + 2, n_d, n_v)


def solve_hjb_2d(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    store_slices: bool = False,
    max_kept_slices: int = 601,
    cell_average_terminal: bool = False,
) -> PriceSurface:
    """Worst-case price surface from the full two-dimensional equation.

    At every interior node the supremum over the multiplier interval of the
    quadratic ``q^2 (x^2 e^{2v} Gamma_xx)/2 + q sqrt(delta) rho sigma x e^v
    Gamma_xv`` is resolved exactly: both endpoints are tried, plus the
    stationary point when the quadratic is concave and the stationary point
    is interior.  Ties prefer ``sigma_max``.
    """
    _require_stability(params, grid, "full")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    values = _full_values(params, (params.delta,), payoff, grid, kept,
                          cell_average_terminal)
    values = values.reshape(len(kept), grid.n_x + 2, grid.n_v)
    values.flags.writeable = False
    return PriceSurface(
        values=values, grid=grid, params=params, kind="full_delta", kept_times=kept
    )


def _bsb_march(params, payoff, grid, cell_average_terminal, e2v, v_offset=0):
    """The march of the limit equation at the factor levels ``e2v``.

    ``e2v`` is a ``(1, width)`` row of ``e^{2v}``; each of its columns is
    an independent 1-D problem.  ``v_offset`` is the full-grid index of the
    first column, which a non-finite node is reported at.  The stability
    check is the caller's.
    """
    width = e2v.shape[1]
    shape = (grid.n_x, width)
    xc = np.broadcast_to(grid.x_nodes[1:-1][:, None], shape).copy()
    a_coef = 0.5 * xc**2 * e2v
    dx2, two_dx, r = grid.dx**2, 2.0 * grid.dx, params.r
    a_lo = a_coef * params.sigma_min**2
    a_hi = a_coef * params.sigma_max**2
    d2, work = np.empty(shape), np.empty(shape)
    convex = np.empty(shape, dtype=bool)

    def rhs(V, k, out):
        _diff2(V.up, V.inner, V.down, dx2, d2)
        np.greater_equal(d2, 0.0, out=convex)
        np.multiply(d2, a_lo, out=out)
        np.multiply(d2, a_hi, out=out, where=convex)
        if r != 0.0:
            _diff(V.up, V.down, two_dx, work)
            np.add(out, _discount(V.inner, xc, work, r), out=out)

    terminal = _terminal_slice(payoff, grid, cell_average_terminal)[:, :width]
    return _Marcher(params, payoff, grid, terminal, rhs, v_offset)


def solve_bsb_1d(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    v: float | None = None,
    store_slices: bool = False,
    max_kept_slices: int = 601,
    cell_average_terminal: bool = False,
) -> PriceSurface:
    """Frozen-factor limit price, bang-bang in the curvature sign.

    With ``v`` given, a single spot-volatility level ``e^v`` is solved and
    broadcast across the v-axis (``v_constant`` is set on the result);
    otherwise every v-node is solved independently, yielding the full limit
    family on the grid.  The supremum reduces to choosing ``sigma_max``
    where the discrete curvature is nonnegative and ``sigma_min`` below
    (ties to ``sigma_max``).
    """
    # min_time_steps refuses a non-finite v before the bound is computed.
    _require_stability(params, grid, "bsb", v)
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    if v is None:
        e2v = np.exp(2.0 * grid.v_nodes)[None, :]
    else:
        e2v = np.array([[math.exp(2.0 * v)]])
    values = _bsb_march(params, payoff, grid, cell_average_terminal, e2v).run(kept)
    if v is not None:
        values = np.repeat(values, grid.n_v, axis=2)
    values.flags.writeable = False
    return PriceSurface(
        values=values,
        grid=grid,
        params=params,
        kind="limit_p0",
        kept_times=kept,
        v_constant=None if v is None else float(v),
    )


def _limit_value_at(params, payoff, grid, x0, v0, cell_average_terminal):
    """``solve_bsb_1d(params, payoff, grid).value_at(0, x0, v0)``, bit for
    bit, from the two v-columns that bracket ``v0``.

    The limit equation has no v-coupling, so the columns the bilinear read
    uses are solved alone, with the family's coefficients and stability
    check, and read with the full grid's weights; the other columns of the
    surface read are left at zero.
    """
    _require_stability(params, grid, "bsb")
    kept = _kept_indices(grid.n_t, False, 2)
    iv = int(grid._cell(x0, v0)[1])
    band = slice(iv, iv + 2)
    values = np.zeros((len(kept), grid.n_x + 2, grid.n_v))
    values[..., band] = _bsb_march(
        params, payoff, grid, cell_average_terminal,
        np.exp(2.0 * grid.v_nodes)[None, band], v_offset=iv,
    ).run(kept)
    surface = PriceSurface(values=values, grid=grid, params=params,
                           kind="limit_p0", kept_times=kept)
    return surface.value_at(0, x0, v0)


def _corrector_march(params, payoff, grid, nearest_pos, limit_slice):
    """The march of the correction equation, reading limit slices.

    Step ``k -> k-1`` freezes the diffusion at the limit slice's bang-bang
    multiplier and takes the source ``q0 rho sigma e^v x`` times its mixed
    derivative, where the slice is ``limit_slice(pos)`` for ``pos =
    nearest_pos(k dt)``.  A slice is asked for only when ``pos`` changes,
    and read at once.  The checks are the caller's.
    """
    xc = grid.x_nodes[1:-1][:, None]
    ev = np.exp(grid.v_nodes)[None, :]
    diff_coef = 0.5 * xc**2 * ev**2
    src_coef = params.rho * params.sigma * xc * ev
    dx2, two_dx, dv, dt = grid.dx**2, 2.0 * grid.dx, grid.dv, grid.dt
    lo, hi = params.sigma_min, params.sigma_max
    # The frozen multiplier q0 is lo or hi, so ``diff_coef * q0**2`` and
    # ``q0 * src_coef`` are one of two precomputed products at each node.
    diff_lo, diff_hi = diff_coef * (lo * lo), diff_coef * (hi * hi)
    src_lo, src_hi = lo * src_coef, hi * src_coef
    shape = (grid.n_x, grid.n_v)
    d2, d_x, diffusion, source = (np.empty(shape) for _ in range(4))
    convex = np.empty(shape, dtype=bool)
    pxv = _pxv(d_x, dv, d2)
    read = -1

    def rhs(V, k, out):
        nonlocal read
        pos = nearest_pos(k * dt)
        if pos != read:
            # The frozen fields are written over the last slice's.
            F0 = limit_slice(pos)
            read = pos
            up, down = F0[2:], F0[:-2]
            np.greater_equal(_diff2(up, F0[1:-1], down, dx2, d2), 0.0, out=convex)
            np.copyto(diffusion, diff_lo)
            np.copyto(diffusion, diff_hi, where=convex)
            np.copyto(source, src_lo)
            np.copyto(source, src_hi, where=convex)
            _diff(up, down, two_dx, d_x)
            np.multiply(source, pxv(), out=source)
        _diff2(V.up, V.inner, V.down, dx2, out)
        np.multiply(out, diffusion, out=out)
        np.add(out, source, out=out)

    # Zero boundary data: the payoff plays no role beyond the x_min row,
    # which the correction keeps at zero where the equation degenerates.
    marcher = _Marcher(params, payoff, grid, np.zeros((grid.n_x + 2, grid.n_v)),
                       rhs)
    marcher.h0 = 0.0
    return marcher


def solve_corrector(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    p0: PriceSurface,
    store_slices: bool = False,
    max_kept_slices: int = 601,
) -> PriceSurface:
    """First-order correction surface driven by a stored limit solve.

    Marches the linear equation with diffusion coefficient frozen at the
    limit solve's bang-bang multiplier and source ``q* rho sigma e^v x``
    times the mixed derivative of the stored limit slices, from a zero
    terminal condition.  Needs ``r = 0`` (the correction PDE is derived in
    the undiscounted setting), a ``limit_p0`` surface on the same grid
    solved per v-node with slices retained.
    """
    if p0.kind != "limit_p0":
        raise ValueError(f"corrector needs a limit_p0 surface, got {p0.kind!r}")
    if p0.grid != grid:
        raise ValueError("limit surface was solved on a different grid")
    if p0.v_constant is not None:
        raise ValueError(
            "corrector needs the per-v-node limit family, not a single-v solve"
        )
    if dataclasses.replace(p0.params, delta=params.delta) != params:
        raise ValueError(
            "parameter mismatch with the limit surface (only delta may differ)"
        )
    if params.r != 0.0:
        raise ValueError("corrector is defined for r = 0")
    if p0.n_kept < min(3, grid.n_t + 1):
        raise ValueError(
            "corrector needs the limit solve with stored slices "
            "(solve_bsb_1d(..., store_slices=True))"
        )
    _require_stability(params, grid, "corrector")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    march = _corrector_march(params, payoff, grid, p0.nearest_pos,
                             lambda pos: p0.values[pos])
    values = march.run(kept)
    values.flags.writeable = False
    return PriceSurface(
        values=values, grid=grid, params=params, kind="corrector_p1", kept_times=kept
    )


def _limit_and_corrector(params, payoff, grid, p1_params, x0, v0,
                         cell_average_terminal):
    """``(P0(0, x0, v0), P1)`` from one march of the limit and corrector.

    Bit for bit what :func:`solve_bsb_1d` with stored slices and
    :func:`solve_corrector` on it give (``P1`` keeps the slices at 0 and
    ``n_t``), but the limit march runs beside the corrector's, only as
    far as the stored slice the corrector reads next, so no slice stack
    is kept.  Errors come in the order of the two solves: the limit's
    stability check and any non-finite limit node come before the
    corrector's checks and march.
    """
    _require_stability(params, grid, "bsb")
    limit = _bsb_march(params, payoff, grid, cell_average_terminal,
                       np.exp(2.0 * grid.v_nodes)[None, :]).steps()
    # The corrector reads the slice that solve_bsb_1d(store_slices=True)
    # keeps nearest in time, and the limit march stops there.
    kept_times = np.asarray(_kept_indices(grid.n_t, True, 601))
    times = kept_times * grid.dt
    k0, F0 = grid.n_t + 1, None

    def limit_at(time_index):
        nonlocal k0, F0
        while k0 > time_index:
            k0, F0 = next(limit)
        return F0

    try:
        if p1_params.r != 0.0:
            raise ValueError("corrector is defined for r = 0")
        _require_stability(p1_params, grid, "corrector")
        march = _corrector_march(
            p1_params, payoff, grid, lambda t: _nearest_pos(times, t),
            lambda pos: limit_at(kept_times[pos]),
        )
        kept = _kept_indices(grid.n_t, False, 2)
        values = march.run(kept)
        with np.errstate(over="ignore", invalid="ignore"):
            limit_at(0)
    except (ValueError, RuntimeError):
        # A limit march that fails later still raises first.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in limit:
                pass
        raise
    values.flags.writeable = False
    p1 = PriceSurface(values=values, grid=grid, params=p1_params,
                      kind="corrector_p1", kept_times=kept)
    return _bilinear(grid, F0, x0, v0, True), p1
