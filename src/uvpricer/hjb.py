"""Finite-difference solvers for the pricing PDEs: one IMEX-BDF2 march.

Three backward marches share one space discretization (central second
differences, 4-point cross stencil, drift-sign upwinding) and one time
step, the implicit-explicit multistep step SBDF2 (Ascher, Ruuth & Wetton
1995): the x-diffusion ``q^2 x^2 e^{2v} P_xx / 2`` is implicit, every other
term and the multiplier ``q`` explicit on the extrapolated slice ``2 P^k -
P^{k+1}``, and each step is one tridiagonal solve, by cyclic reduction
along x, over every v-column and stacked solve.  :func:`solve_hjb_2d`
solves the full worst-case equation, :func:`solve_bsb_1d` its frozen-factor
limit (the same equation at ``delta = 0``, bang-bang in the curvature
sign) and :func:`solve_corrector` the first-order correction, in a stack
of two beside a limit it marches itself from the terminal slice, so it
reads no stored slice.  Stacked solves give the lone solves' bits.

At ``x_min = 0`` the equation degenerates and is solved exactly; for
``x_min > 0`` and at ``x_max`` the row next to the edge has no implicit
diffusion and the edge is extrapolated (``P_xx = 0``); the v-edges use a
vanishing second derivative and one-sided first derivatives.  A solve
refuses a step count below :func:`min_time_steps`, naming the binding term.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NonFiniteError, StabilityError
from .model import GridSpec, ModelParams, PiecewiseLinearPayoff
from .surface import PriceSurface, _bilinear, _diff, _diff2, _q_argsup

# The fewest steps a solve takes: the march's second-order time error is a
# few 1e-6 of the section-4 price at 128 steps.
_MIN_STEPS = 128


def _step_bound(params, grid, kind, v) -> tuple[int, str]:
    """``(min_time_steps, the term that sets it)``."""
    if kind not in ("full", "bsb", "corrector"):
        raise ValueError(f"unknown solver kind {kind!r}")
    if v is not None and not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    x_peak, d = grid.x_nodes[-2], params.delta
    rates = {"discount": params.r * x_peak / grid.dx + params.r}
    if kind == "full":
        rates["v-diffusion"] = d * params.sigma**2 / grid.dv**2
        rates["cross"] = (math.sqrt(d) * params.sigma_max * abs(params.rho)
                          * params.sigma * math.exp(grid.v_max) * x_peak
                          / (grid.dx * grid.dv))
        drift = d * np.abs(params.a - params.b * np.exp(params.alpha * grid.v_nodes))
        rates["v-drift"] = float(drift.max()) / grid.dv
    needed = math.ceil(grid.T * sum(rates.values()) / grid.cfl_safety)
    if needed <= _MIN_STEPS:
        return _MIN_STEPS, f"{_MIN_STEPS}-step accuracy floor"
    return needed, f"explicit {max(rates, key=rates.get)} term"


def min_time_steps(
    params: ModelParams, grid: GridSpec, kind: str = "full", v: float | None = None
) -> int:
    """Smallest admissible number of time steps for the grid: the explicit
    terms' worst-case rates summed (the sum dominates the max) under the
    grid's CFL safety factor, and never below 128 for accuracy.  ``"full"``
    adds the factor terms to the discount that ``"bsb"`` and
    ``"corrector"`` have alone; a level ``v`` enters none but must be
    finite."""
    return _step_bound(params, grid, kind, v)[0]


def _require_stability(params, grid, kind, v=None) -> None:
    needed, term = _step_bound(params, grid, kind, v)
    if grid.n_t < needed:
        raise StabilityError(
            f"n_t={grid.n_t} is below the stability bound for this grid; "
            f"need at least {needed} time steps (the {term} binds)",
            min_time_steps=needed,
        )


# The solvers' default slice budget.
_MAX_KEPT_SLICES = 601


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


def _check_finite(P: np.ndarray, time_index: int) -> None:
    """Raise :class:`NonFiniteError` at the first non-finite node of ``P``, a
    slice or a stack on its middle axis (the first slice with one, whose
    place is ``stack_index`` on the error)."""
    bad = ~np.isfinite(P)
    if not bad.any():
        return
    stack_index = int(np.flatnonzero(bad.any(axis=(0, 2)))[0]) if bad.ndim == 3 else 0
    node = tuple(int(n) for n in np.argwhere(bad[:, stack_index] if bad.ndim == 3
                                             else bad)[0])
    err = NonFiniteError(f"non-finite value at time index {time_index}, node {node}",
                         time_index=time_index, node=node)
    err.stack_index = stack_index
    raise err


class _Tridiagonal:
    """Solver of ``lower[i] y[i-1] + diag[i] y[i] + upper[i] y[i+1] =
    rhs[i]`` along axis 0 of ``shape``, one system per trailing column, by
    cyclic reduction: the level of stride ``s`` eliminates from each
    equation at ``2s - 1, 4s - 1, ...`` (``up``) its neighbours at distance
    ``s`` (``lft``, ``rgt``); the one equation left is solved and the levels
    are undone in reverse.  Every operation is elementwise over the columns,
    so a column's bits do not depend on the others.  The arrays are slots of
    one ``(n, 4, ...)`` array, so one product updates ``(diag, rhs)`` from a
    neighbour's ``(upper, rhs)`` or ``(lower, rhs)``.  A solve leaves the
    solution in ``rhs``; ``lower[0]`` and ``upper[-1]`` do not enter it, and
    ``upper[0]`` is never changed."""

    def __init__(self, shape):
        n, cols = shape[0], shape[1:]
        packed = np.empty((n, 4, *cols))
        self.lower, self.diag, self.rhs, self.upper = (packed[:, j] for j in range(4))
        t, pair = np.empty((max(1, n // 2), *cols)), np.empty((max(1, n // 2), 2, *cols))
        self._levels, s = [], 1
        while 2 * s <= n:
            m, m_r = len(range(2 * s - 1, n, 2 * s)), len(range(3 * s - 1, n, 2 * s))
            up, lft = packed[2 * s - 1::2 * s], packed[s - 1:s - 1 + 2 * s * m:2 * s]
            up_r, rgt, side = up[:m_r], packed[3 * s - 1::2 * s], packed[s - 1::2 * s]
            # The views each pass reads; each level keeps its f and g for a
            # repeat solve, and -f and -g get buffers of their own (numpy
            # 2.4's in-place negative misreads a 64-byte stride).
            f, g, nf, ng = (np.empty((k, *cols)) for k in (m, m_r, m, m_r))
            self._levels.append((
                (f, g, nf, ng, f[:, None], g[:, None],
                 pair[:m], pair[:m_r], up[:, 0], lft[:, 1], up_r[:, 3],
                 rgt[:, 1], up[:, 1:3], lft[:, 3:1:-1], up_r[:, 1:3],
                 rgt[:, 0:3:2], lft[:, 0], rgt[:, 3]),
                (t[:m], t[:m_r], rgt[:, 0], lft[:, 3], rgt[:, 2], up_r[:, 2],
                 lft[:, 2], up[:, 2], side[:, 2], side[:, 1])))
            s *= 2
        self._top = packed[s - 1:s, 2], packed[s - 1:s, 1]

    def solve(self, again: bool = False) -> None:
        """Overwrite ``rhs`` with the solution; ``again`` solves with the
        last solve's matrix, whose elimination the arrays still hold."""
        for (f, g, nf, ng, f_b, g_b, pair, pair_r, a_up, b_lft, c_up_r, b_rgt,
             x_up, y_lft, x_up_r, y_rgt, a_lft, c_rgt), back in self._levels:
            if again:
                t, t_r, _, _, d_rgt, d_up_r, d_lft, d_up = back[:8]
                np.subtract(d_up, np.multiply(f, d_lft, out=t), out=d_up)
                np.subtract(d_up_r, np.multiply(g, d_rgt, out=t_r), out=d_up_r)
                continue
            np.negative(np.divide(a_up, b_lft, out=f), out=nf)
            np.negative(np.divide(c_up_r, b_rgt, out=g), out=ng)
            np.subtract(x_up, np.multiply(f_b, y_lft, out=pair), out=x_up)
            np.subtract(x_up_r, np.multiply(g_b, y_rgt, out=pair_r), out=x_up_r)
            np.multiply(nf, a_lft, out=a_up)
            np.multiply(ng, c_rgt, out=c_up_r)
        np.divide(*self._top, out=self._top[0])
        for _, (t, t_r, a_rgt, c_lft, d_rgt, d_up_r, d_lft, d_up, d_side,
                b_side) in reversed(self._levels):
            np.subtract(d_rgt, np.multiply(a_rgt, d_up_r, out=t_r), out=d_rgt)
            np.subtract(d_lft, np.multiply(c_lft, d_up, out=t), out=d_lft)
            np.divide(d_side, b_side, out=d_side)


class _Marcher:
    """Backward IMEX-BDF2 march of ``terminal``, an ``(n_x + 2, ...)`` slice.

    ``explicit(P, k, E, w)`` reads the slice ``P`` and writes its interior
    time derivative ``E`` and the coefficient ``w`` of its ``P_xx``, which
    the step takes implicitly; ``k`` is the step's time index on a
    multistep step's extrapolated slice, None in the first step.  ``h0`` is
    the payoff at ``x_min``, or one per stacked solve."""

    def __init__(self, params, payoff, grid, terminal, explicit, h0=None):
        self.grid, self.terminal, self.explicit = grid, terminal, explicit
        self.neg_r = -params.r
        self.h0 = float(payoff(grid.x_min)) if h0 is None else h0
        self.exact_x_min = grid.x_min == 0.0
        inner = terminal[1:-1].shape
        self.tri, self.E, self.w = _Tridiagonal(inner), np.empty(inner), np.empty(inner)
        self._key, self._w = None, np.empty(inner)  # the last matrix's key, w

    def _solve(self, P, base, alpha: float, gamma_dt: float, t: float) -> None:
        """The slice ``P`` at ``t``: ``base`` plus the solution ``D`` of
        ``(alpha - gamma_dt w D_xx) D = R``, where ``R`` is in the kernel's
        ``rhs`` and ``D`` at an exact edge is that edge's change."""
        tri, w = self.tri, self.w
        w[-1].fill(0.0)
        if not self.exact_x_min:
            w[0].fill(0.0)
        # A repeat of the last matrix (most steps of the limit, whose
        # bang-bang multiplier seldom flips) reuses its elimination.
        again = self._key == (alpha, gamma_dt) and np.array_equal(w, self._w)
        if not again:
            self._key = alpha, gamma_dt
            np.copyto(self._w, w)
            c = np.multiply(w, -gamma_dt / self.grid.dx**2, out=tri.upper)
            np.subtract(alpha, np.multiply(c, 2.0, out=tri.diag), out=tri.diag)
            np.copyto(tri.lower, c)
        if self.exact_x_min:
            np.multiply(self.h0, math.exp(self.neg_r * (self.grid.T - t)), out=P[0])
            tri.rhs[0] -= tri.upper[0] * (P[0] - base[0])
        tri.solve(again)
        np.add(tri.rhs, base[1:-1], out=P[1:-1])
        self._edges(P)

    def _edges(self, P) -> None:
        """The extrapolated edge rows ``2 near - far``, of zero ``P_xx``."""
        if not self.exact_x_min:
            np.subtract(np.multiply(P[1], 2.0, out=P[0]), P[2], out=P[0])
        np.subtract(np.multiply(P[-2], 2.0, out=P[-1]), P[-3], out=P[-1])

    def steps(self):
        """Yield ``(k, P)``, the slice at each time index ``k = n_t .. 0``.

        ``E`` includes the x-diffusion, so a step solves for an increment
        and keeps a constant slice exactly.  The first step is ``2 P_hh -
        P_full`` of IMEX-Euler steps ``P + D``, ``(1 - h w D_xx) D = h
        E(P)``; each later one is SBDF2: ``Q + D`` with ``Q = 2 P^k -
        P^{k+1}`` and ``(3/2 - dt w D_xx) D = P^{k+1} - P^k + dt E(Q)``.
        ``P`` is the march's own buffer, to be read before it goes on.  A
        slice is scanned for a non-finite node only when its sum is not
        finite; overflow and invalid operations leave such a node or only
        overflow the sum, and :meth:`run` ignores them."""
        n, dt, explicit, E, w = (self.grid.n_t, self.grid.dt, self.explicit,
                                 self.E, self.w)
        P = self.terminal.copy()
        old, full, half, cur = P, *(np.empty_like(P) for _ in range(3))
        yield n, P
        R = self.tri.rhs
        explicit(old, None, E, w)
        for into, start, h, t in ((full, old, dt, n - 1),
                                  (half, old, 0.5 * dt, n - 0.5),
                                  (cur, half, 0.5 * dt, n - 1)):
            if into is cur:
                explicit(half, None, E, w)
            np.multiply(E, h, out=R)
            self._solve(into, start, 1.0, h, t * dt)
        np.subtract(np.multiply(cur, 2.0, out=cur), full, out=cur)
        self._edges(cur)
        new, bar = full, half
        for k in range(n, 0, -1):
            if k < n:
                np.subtract(np.multiply(cur, 2.0, out=bar), old, out=bar)
                explicit(bar, k, E, w)
                np.subtract(old[1:-1], cur[1:-1], out=R)
                np.add(R, np.multiply(E, dt, out=E), out=R)
                self._solve(new, bar, 1.5, dt, (k - 1) * dt)
                old, cur, new = cur, new, old
            if not math.isfinite(cur.sum()):
                _check_finite(cur, k - 1)
            yield k - 1, cur

    def run(self, kept) -> np.ndarray:
        """The slices at the ascending time indices ``kept``, stacked."""
        pos = {k: p for p, k in enumerate(kept)}
        values = np.empty((len(kept), *self.terminal.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, P in self.steps():
                if k in pos:
                    values[pos[k]] = P
        return values


def _full_explicit(params, deltas, grid, v_nodes):
    """``(explicit, q, pxv)`` of the full equation for each of ``deltas``,
    stacked, at the levels ``v_nodes``: ``E`` is the pointwise supremum plus
    the v-diffusion, upwind v-drift and discount terms, ``w`` is ``q^2 x^2
    e^{2v} / 2`` for the maximizer kept in ``q`` (ties to ``sigma_max``).
    Each delta keeps a lone solve's coefficients and upwind pick.  A zero
    delta's cross and v-terms are set to +0.0, which leave its supremum
    (never -0.0) as it is, so a stack of zeros (the limit) skips them."""
    n_x, n_d, n_v = grid.n_x, len(deltas), len(v_nodes)
    # A lone delta marches plain (n_x + 2, n_v) slices: a singleton middle
    # axis would only slow the strided edge-column operations.
    shape = (n_x, n_d, n_v) if n_d > 1 else (n_x, n_v)

    def full(a):
        return np.broadcast_to(a, (n_x, n_d, n_v)).reshape(shape).copy()

    x_in = grid.x_nodes[1:-1][:, None, None]
    ev = np.exp(v_nodes)
    xc = full(x_in)
    a_coef = 0.5 * xc**2 * ev**2
    b_coef = full(np.stack(
        [math.sqrt(d) * params.rho * params.sigma * x_in[:, 0] * ev for d in deltas],
        axis=1,
    ))
    c_vv = np.array([0.5 * d * params.sigma**2 for d in deltas])
    c_vv = c_vv[0] if n_d == 1 else full(c_vv[:, None])
    level = params.a - params.b * np.exp(params.alpha * v_nodes)
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
    still = [j for j, d in enumerate(deltas) if d == 0.0]
    moving = len(still) < n_d

    def vanish(a):
        if still:
            a[:, still] = 0.0
        return a

    d_x, aa, bb, vxv, work, q, f_hi = (np.zeros(shape) for _ in range(7))
    masks = (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
    flat_x, two_dv = d_x.reshape(-1), 2.0 * dv
    v_edges = ((vxv[..., 0], d_x[..., 1], d_x[..., 0]),
               (vxv[..., -1], d_x[..., -1], d_x[..., -2]))

    def pxv():
        """The cross derivative from the x-difference: central in v, first
        order one-sided at the two v-edges."""
        _diff(flat_x[2:], flat_x[:-2], two_dv, vxv.reshape(-1)[1:-1])
        for edge, right, left in v_edges:
            _diff(right, left, dv, edge)
        return vxv

    work_flat = work.reshape(-1)
    work_mid, work_edges = work_flat[1:-1], (work[..., 0], work[..., -1])
    fwd = np.empty(n_x * n_d * n_v - 1)

    # The v-stencils read offset-by-one slices of the flattened C-contiguous
    # rows and then overwrite the two edge columns, where those slices
    # straddle two rows; the v-axis is the last one, so a stack of slices
    # on a middle axis runs through them unchanged.
    def explicit(P, k, E, w):
        up, inner, down = P[2:], P[1:-1], P[:-2]
        flat = inner.reshape(-1)
        _diff(up, down, two_dx, d_x)
        np.multiply(_diff2(up, inner, down, dx2, aa), a_coef, out=aa)
        if moving:
            vanish(np.multiply(pxv(), b_coef, out=bb))
        _q_argsup(aa, bb, lo, hi, out=(E, q, f_hi, *masks))
        np.multiply(np.multiply(q, q, out=w), a_coef, out=w)
        if moving:
            # Central second v-difference, zero on the two v-edge columns;
            # these are added too: -0.0 + 0.0 is +0.0.
            _diff2(flat[2:], flat[1:-1], flat[:-2], dv2, work_mid)
            for edge in work_edges:
                edge.fill(0.0)
            np.add(E, vanish(np.multiply(work, c_vv, out=work)), out=E)
            _diff(flat[1:], flat[:-1], dv, fwd)
            fwd.take(upwind, out=work_flat, mode="clip")
            np.add(E, vanish(np.multiply(work, drift, out=work)), out=E)
        if r != 0.0:
            # The discount and drift r (x P_x - P), over the x-difference.
            np.subtract(np.multiply(d_x, xc, out=d_x), inner, out=d_x)
            np.add(E, np.multiply(d_x, r, out=d_x), out=E)

    return explicit, q, pxv


def _full_values(params, deltas, payoff, grid, kept, cell_average_terminal,
                 v_nodes=None):
    """``(n_kept, n_x + 2, n_delta, n_v)`` kept slices of the full equation
    for each of ``deltas``, marched as one stack on the middle axis, each
    bit for bit its own march, at the levels ``v_nodes`` (the grid's by
    default).  The stability check is the caller's; a non-finite node
    raises for the first delta, in the order given, that has one."""
    v_nodes = grid.v_nodes if v_nodes is None else v_nodes
    n_d, n_v = len(deltas), len(v_nodes)
    explicit = _full_explicit(params, deltas, grid, v_nodes)[0]
    terminal = np.repeat(_terminal_slice(payoff, grid, cell_average_terminal)[
        :, None, :n_v], n_d, axis=1)
    marcher = _Marcher(params, payoff, grid,
                       terminal[:, 0] if n_d == 1 else terminal, explicit)
    return marcher.run(kept).reshape(len(kept), grid.n_x + 2, n_d, n_v)


def _surface(values, grid, params, kind, kept, v_constant=None):
    """A :class:`PriceSurface` of read-only, C-contiguous ``values``."""
    values = np.ascontiguousarray(values)
    values.flags.writeable = False
    return PriceSurface(values=values, grid=grid, params=params, kind=kind,
                        kept_times=kept, v_constant=v_constant)


def solve_hjb_2d(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    store_slices: bool = False,
    max_kept_slices: int = _MAX_KEPT_SLICES,
    cell_average_terminal: bool = False,
) -> PriceSurface:
    """Worst-case price surface from the full two-dimensional equation.

    At every interior node the multiplier maximizes the quadratic ``q^2
    (x^2 e^{2v} Gamma_xx)/2 + q sqrt(delta) rho sigma x e^v Gamma_xv`` of
    the step's extrapolated slice over the multiplier interval exactly:
    both endpoints, plus the stationary point where the quadratic is
    concave and it is interior.  Ties prefer ``sigma_max``."""
    _require_stability(params, grid, "full")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    values = _full_values(params, (params.delta,), payoff, grid, kept,
                          cell_average_terminal)
    return _surface(values[:, :, 0], grid, params, "full_delta", kept)


def solve_bsb_1d(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    v: float | None = None,
    store_slices: bool = False,
    max_kept_slices: int = _MAX_KEPT_SLICES,
    cell_average_terminal: bool = False,
) -> PriceSurface:
    """Frozen-factor limit price, bang-bang in the curvature sign.

    The full equation at ``delta = 0`` (whatever ``params.delta``), as a
    delta stack's zero member gives it.  With ``v`` given, the single level
    ``e^v`` is solved, as two equal columns for the v-stencils, and
    broadcast across the v-axis (``v_constant`` is set); otherwise every
    v-node is, the limit family.  The supremum chooses ``sigma_max`` where
    the discrete curvature is nonnegative, ``sigma_min`` below."""
    # min_time_steps refuses a non-finite v before the bound is computed.
    _require_stability(params, grid, "bsb", v)
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    levels = grid.v_nodes if v is None else np.array([v, v], dtype=float)
    values = _full_values(params, (0.0,), payoff, grid, kept,
                          cell_average_terminal, levels)[:, :, 0]
    if v is not None:
        values = np.repeat(values[..., :1], grid.n_v, axis=2)
    return _surface(values, grid, params, "limit_p0", kept,
                    None if v is None else float(v))


def _corrector_march(params, payoff, grid, terminal):
    """The march of a stack of two: the limit (the full equation at delta
    = 0) from ``terminal``, and the correction from zero, its diffusion
    frozen at the limit's multiplier of the same step (so its matrix is the
    limit's), its source ``q rho sigma x e^v`` times the limit's mixed
    derivative on the same slice: the one definition of ``P1``."""
    limit, q, pxv = _full_explicit(params, (0.0,), grid, grid.v_nodes)
    src = params.rho * params.sigma * grid.x_nodes[1:-1][:, None] * np.exp(grid.v_nodes)
    F, E0, w0, d2 = np.empty_like(terminal), *(np.empty_like(src) for _ in range(3))

    def explicit(P, k, E, w):
        np.copyto(F, P[:, 0])
        limit(F, k, E0, w0)
        E[:, 0], w[:, 0], w[:, 1] = E0, w0, w0
        _diff2(P[2:, 1], P[1:-1, 1], P[:-2, 1], grid.dx**2, d2)
        np.multiply(np.multiply(q, src, out=E0), pxv(), out=E0)
        np.add(np.multiply(w0, d2, out=d2), E0, out=E[:, 1])

    # Zero boundary data: the payoff plays no role beyond the x_min row,
    # which the correction keeps at zero where the equation degenerates.
    stack = np.stack([terminal, np.zeros_like(terminal)], axis=1)
    h0 = np.array([[float(payoff(grid.x_min))], [0.0]])
    return _Marcher(params, payoff, grid, stack, explicit, h0)


def solve_corrector(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    grid: GridSpec,
    p0: PriceSurface,
    store_slices: bool = False,
    max_kept_slices: int = _MAX_KEPT_SLICES,
) -> PriceSurface:
    """First-order correction surface beside the limit solve ``p0``.

    Marches the linear equation with diffusion frozen at the limit's
    bang-bang multiplier and source ``q* rho sigma e^v x`` times the
    limit's mixed derivative, from zero, beside the limit marched from
    ``p0``'s terminal slice, so ``P1`` does not depend on the slices
    ``p0`` kept.  Needs ``r = 0`` (the correction PDE is derived without
    discounting) and a ``limit_p0`` family on the same grid."""
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
    _require_stability(params, grid, "corrector")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    march = _corrector_march(params, payoff, grid, p0.values[-1])
    return _surface(march.run(kept)[:, :, 1], grid, params, "corrector_p1", kept)


def _limit_and_corrector(params, payoff, grid, p1_params, x0, v0,
                         cell_average_terminal):
    """``(P0(0, x0, v0), P1)``, bit for bit what :func:`solve_bsb_1d` and
    :func:`solve_corrector` on it give (``P1`` keeps the slices at 0 and
    ``n_t``), from the one march of the corrector's stack, which keeps no
    slices.  Any error in it replays the two solves, which raise in their
    order."""
    kept = _kept_indices(grid.n_t, False, 2)
    if p1_params.r == 0.0:
        try:
            _require_stability(params, grid, "bsb")  # and so the corrector's
            values = _corrector_march(params, payoff, grid, _terminal_slice(
                payoff, grid, cell_average_terminal)).run(kept)
            return (_bilinear(grid, values[0, :, 0], x0, v0, True),
                    _surface(values[:, :, 1], grid, p1_params, "corrector_p1", kept))
        except (ValueError, RuntimeError):
            pass
    p0 = solve_bsb_1d(params, payoff, grid,
                      cell_average_terminal=cell_average_terminal)
    return p0.value_at(0, x0, v0), solve_corrector(p1_params, payoff, grid, p0)
