"""Allocating forms of the marches, kept as test references.

``hjb._Marcher`` steps into four rotating buffers and its ``explicit``
closures write into preallocated work arrays, with the v-stencils on the
flattened grid.  The IMEX-BDF2 functions here (``solve_hjb_2d``,
``solve_bsb_1d``, ``solve_corrector``) allocate every temporary, take the
v-differences on column slices, build each step's tridiagonal system from
expressions and solve it with the package's kernel ``hjb._Tridiagonal``
(which ``tests/test_hjb.py`` checks against dense solves); they must give
the package's bits.  The ``explicit_*`` functions are the explicit Euler
march the package ran before, with its own stability bound
(``explicit_min_steps``): a cross-scheme oracle that agrees with the
IMEX march within its own time error.  Each solve returns ``(values,
kept_times)``.  ``q_sup_parts`` is the q-sup kernel that computes the
stationary point at every concave node, and ``greeks`` the
``np.moveaxis`` form of ``surface.greeks``.  Every difference here is an
expression, not a call of the ``surface._diff`` / ``_diff2`` kernels that
the marches and ``surface.greeks`` share, so a change to those kernels
shows against this file.
"""

import dataclasses
import math

import numpy as np

from uvpricer.hjb import (
    _check_finite,
    _kept_indices,
    _require_stability,
    _terminal_slice,
    _Tridiagonal,
)


def q_sup(aa, bb, lo, hi):
    """Pointwise supremum of ``q^2 aa + q bb`` over ``[lo, hi]``."""
    f_lo = lo * lo * aa + lo * bb
    f_hi = hi * hi * aa + hi * bb
    sup = np.maximum(f_lo, f_hi)
    concave = aa < 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q_hat = np.where(concave, -bb / (2.0 * aa), hi)
        f_hat = np.where(concave, -(bb * bb) / (4.0 * aa), -np.inf)
        lost = concave & ((np.abs(bb) < 2.0**-511) | (np.abs(bb) >= 2.0**512))
        f_hat = np.where(lost, 0.5 * bb * q_hat, f_hat)
    inside = concave & (q_hat > lo) & (q_hat < hi)
    return np.where(inside, np.maximum(sup, f_hat), sup)


def q_sup_parts(aa, bb, lo, hi):
    """``surface._q_sup``'s five returns, with ``q_hat`` computed at every
    concave node: ``(sup, f_lo, f_hi, inside, q_inside)``."""
    f_lo = aa * (lo * lo) + bb * lo
    f_hi = aa * (hi * hi) + bb * hi
    sup = np.maximum(f_lo, f_hi)
    concave = aa < 0.0
    if not concave.any():
        return sup, f_lo, f_hi, np.empty(0, dtype=np.intp), np.empty(0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q_hat = -bb / (2.0 * aa)
        inside = np.flatnonzero(concave & (q_hat > lo) & (q_hat < hi))
        a, b = np.take(aa, inside), np.take(bb, inside)
        f_hat = -(b * b) / (4.0 * a)
        lost = (np.abs(b) < 2.0**-511) | (np.abs(b) >= 2.0**512)
        f_hat[lost] = 0.5 * b[lost] * q_hat.take(inside)[lost]
    flat = sup.reshape(-1)
    flat[inside] = np.maximum(flat.take(inside), f_hat)
    return sup, f_lo, f_hi, inside, q_hat.take(inside)


def q_argsup(aa, bb, lo, hi):
    """A maximizer of ``q^2 aa + q bb`` over ``[lo, hi]``; ties to ``hi``."""
    sup, f_lo, f_hi, inside, q_inside = q_sup_parts(aa, bb, lo, hi)
    q = np.where(f_hi >= f_lo, hi, lo)
    wins = sup.take(inside) > np.maximum(f_lo, f_hi).take(inside)
    q.reshape(-1)[inside[wins]] = q_inside[wins]
    return q


def pxx(P, dx):
    return (P[2:] - 2.0 * P[1:-1] + P[:-2]) / dx**2


def px(P, dx):
    return (P[2:] - P[:-2]) / (2.0 * dx)


def pxv(d_x, dv):
    out = np.empty_like(d_x)
    out[:, 1:-1] = (d_x[:, 2:] - d_x[:, :-2]) / (2.0 * dv)
    out[:, 0] = (d_x[:, 1] - d_x[:, 0]) / dv
    out[:, -1] = (d_x[:, -1] - d_x[:, -2]) / dv
    return out


def full_explicit(params, delta, grid, v_nodes):
    """``P -> (E, w, q, P_xv, aa)`` of the full equation at ``delta`` on
    the factor levels ``v_nodes``: the time derivative, the coefficient of
    its ``P_xx``, the multiplier, the mixed derivative and ``x^2 e^{2v}
    P_xx / 2``."""
    xc = grid.x_nodes[1:-1][:, None]
    ev = np.exp(v_nodes)[None, :]
    a_coef = 0.5 * xc**2 * ev**2
    b_coef = math.sqrt(delta) * params.rho * params.sigma * xc * ev
    c_vv = 0.5 * delta * params.sigma**2
    drift_v = delta * (params.a - params.b * np.exp(params.alpha * v_nodes))
    n_v = len(v_nodes)
    j_upwind = np.where(drift_v >= 0.0, np.arange(n_v), np.arange(n_v) - 1)
    j_upwind = np.clip(j_upwind, 0, n_v - 2)
    dx, dv, r = grid.dx, grid.dv, params.r
    lo, hi = params.sigma_min, params.sigma_max

    def explicit(P):
        inner = P[1:-1]
        d_x = px(P, dx)
        mixed = pxv(d_x, dv)
        # A zero delta's cross coefficient is +0.0 and its v-terms vanish.
        aa = a_coef * pxx(P, dx)
        bb = b_coef * mixed if delta else np.zeros_like(mixed)
        q = q_argsup(aa, bb, lo, hi)
        E = q_sup_parts(aa, bb, lo, hi)[0]
        if delta:
            pvv = np.zeros_like(d_x)
            pvv[:, 1:-1] = (inner[:, 2:] - 2.0 * inner[:, 1:-1]
                            + inner[:, :-2]) / dv**2
            pv = ((inner[:, 1:] - inner[:, :-1]) / dv)[:, j_upwind]
            E = E + c_vv * pvv + drift_v[None, :] * pv
        if r != 0.0:
            E = E + r * (xc * d_x - inner)
        return E, q * q * a_coef, q, mixed, aa

    return explicit


def imex_march(params, grid, kept, terminal, explicit, h0):
    """Backward IMEX-BDF2 march allocating every slice and system.

    ``explicit(P, k) -> (E, w)``, the time derivative and the coefficient
    of its ``P_xx``, with ``k`` None on the slices of the first step; each
    step solves for the increment from ``P``, or from the extrapolated
    slice.  ``h0`` is the payoff at ``x_min``, broadcast on the trailing
    axes of ``terminal``."""
    dt, n = grid.dt, grid.n_t
    exact = grid.x_min == 0.0

    def edges(P):
        if not exact:
            P[0] = 2.0 * P[1] - P[2]
        P[-1] = 2.0 * P[-2] - P[-3]

    def implicit(R, base, w, alpha, gamma_dt, t):
        w = w.copy()
        w[-1] = 0.0
        if not exact:
            w[0] = 0.0
        c = w * (-gamma_dt / grid.dx**2)
        new = np.empty_like(base)
        R = R.copy()
        if exact:
            new[0] = h0 * math.exp(-params.r * (grid.T - t))
            R[0] = R[0] - c[0] * (new[0] - base[0])
        tri = _Tridiagonal(R.shape)
        tri.lower[...] = c
        tri.upper[...] = c
        tri.diag[...] = alpha - c * 2.0
        tri.rhs[...] = R
        tri.solve()
        new[1:-1] = tri.rhs + base[1:-1]
        edges(new)
        return new

    pos = {k: p for p, k in enumerate(kept)}
    values = np.empty((len(kept), *terminal.shape))

    def keep(k, P):
        _check_finite(P, k)
        if k in pos:
            values[pos[k]] = P

    old = terminal.copy()
    keep(n, old)
    E, w = explicit(old, None)
    full = implicit(E * dt, old, w, 1.0, dt, (n - 1) * dt)
    half = implicit(E * (0.5 * dt), old, w, 1.0, 0.5 * dt, (n - 0.5) * dt)
    E, w = explicit(half, None)
    cur = 2.0 * implicit(E * (0.5 * dt), half, w, 1.0, 0.5 * dt,
                         (n - 1) * dt) - full
    edges(cur)
    keep(n - 1, cur)
    for k in range(n - 1, 0, -1):
        bar = 2.0 * cur - old
        E, w = explicit(bar, k)
        R = old[1:-1] - cur[1:-1] + E * dt
        old, cur = cur, implicit(R, bar, w, 1.5, dt, (k - 1) * dt)
        keep(k - 1, cur)
    return values


def _full_march(params, delta, payoff, grid, kept, cell_average_terminal, v_nodes):
    explicit = full_explicit(params, delta, grid, v_nodes)
    terminal = _terminal_slice(payoff, grid, cell_average_terminal)[:, :len(v_nodes)]
    return imex_march(params, grid, kept, terminal,
                      lambda P, k: explicit(P)[:2], float(payoff(grid.x_min)))


def solve_hjb_2d(params, payoff, grid, store_slices=False, max_kept_slices=601,
                 cell_average_terminal=False):
    _require_stability(params, grid, "full")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    return _full_march(params, params.delta, payoff, grid, kept,
                       cell_average_terminal, grid.v_nodes), kept


def solve_bsb_1d(params, payoff, grid, v=None, store_slices=False,
                 max_kept_slices=601, cell_average_terminal=False):
    """The full equation at delta = 0; a single level as two equal columns."""
    _require_stability(params, grid, "bsb", v)
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    levels = grid.v_nodes if v is None else np.array([v, v], dtype=float)
    values = _full_march(params, 0.0, payoff, grid, kept, cell_average_terminal,
                         levels)
    if v is not None:
        values = np.repeat(values[..., :1], grid.n_v, axis=2)
    return values, kept


def solve_corrector(params, payoff, grid, p0, store_slices=False,
                    max_kept_slices=601):
    """The limit (member 0, from ``p0``'s terminal slice, its multistep
    slices read off ``p0``) and the correction (member 1) marched as one
    stack; the correction's slices."""
    assert p0.kind == "limit_p0" and p0.grid == grid and p0.v_constant is None
    assert dataclasses.replace(p0.params, delta=params.delta) == params
    assert params.r == 0.0
    _require_stability(params, grid, "corrector")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    limit = full_explicit(params, 0.0, grid, grid.v_nodes)
    src = params.rho * params.sigma * grid.x_nodes[1:-1][:, None] * np.exp(
        grid.v_nodes)[None, :]

    def stored(k):
        return p0.values[p0.nearest_pos(k * grid.dt)]

    def explicit(P, k):
        F = P[:, 0] if k is None else 2.0 * stored(k) - stored(k + 1)
        E0, w0, q0, mixed, _ = limit(F)
        E1 = w0 * pxx(P[:, 1], grid.dx) + q0 * src * mixed
        return np.stack([E0, E1], axis=1), np.stack([w0, w0], axis=1)

    terminal = np.stack([p0.values[-1], np.zeros_like(p0.values[-1])], axis=1)
    h0 = np.array([[float(payoff(grid.x_min))], [0.0]])
    values = imex_march(params, grid, kept, terminal, explicit, h0)
    return values[:, :, 1], kept


def explicit_min_steps(params, grid, kind):
    """The explicit march's stability bound: the x-diffusion rate at
    ``v_max`` added to the explicit terms ``hjb.min_time_steps`` sums."""
    x_peak = grid.x_nodes[-2]
    rate = params.sigma_max**2 * math.exp(2.0 * grid.v_max) * x_peak**2 / grid.dx**2
    rate += params.r * x_peak / grid.dx + params.r
    if kind == "full":
        rate += params.delta * params.sigma**2 / grid.dv**2
        rate += (math.sqrt(params.delta) * params.sigma_max * abs(params.rho)
                 * params.sigma * math.exp(grid.v_max) * x_peak / (grid.dx * grid.dv))
        drift = params.delta * np.abs(
            params.a - params.b * np.exp(params.alpha * grid.v_nodes))
        rate += float(drift.max()) / grid.dv
    return max(1, math.ceil(grid.T * rate / grid.cfl_safety))


def explicit_march(params, payoff, grid, kept, terminal, rhs, h0=None):
    """Backward explicit Euler march allocating a new slice every step."""
    dt = grid.dt
    h0 = float(payoff(grid.x_min)) if h0 is None else h0
    pos = {k: p for p, k in enumerate(kept)}
    values = np.empty((len(kept), *terminal.shape))
    P = terminal.copy()
    if grid.n_t in pos:
        values[pos[grid.n_t]] = P
    for k in range(grid.n_t, 0, -1):
        new = np.empty_like(P)
        new[1:-1] = P[1:-1] + dt * rhs(P, k)
        t_new = (k - 1) * dt
        if grid.x_min == 0.0:
            new[0] = math.exp(-params.r * (grid.T - t_new)) * h0
        else:
            new[0] = 2.0 * new[1] - new[2]
        new[-1] = 2.0 * new[-2] - new[-3]
        _check_finite(new, k - 1)
        P = new
        if (k - 1) in pos:
            values[pos[k - 1]] = P
    return values


def explicit_solve_hjb_2d(params, payoff, grid, store_slices=False,
                          max_kept_slices=601, cell_average_terminal=False):
    """The explicit Euler march of the full equation (``delta = 0`` is the
    limit family); ``grid.n_t`` at least ``explicit_min_steps``."""
    assert grid.n_t >= explicit_min_steps(params, grid, "full")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    xc = grid.x_nodes[1:-1][:, None]
    ev = np.exp(grid.v_nodes)[None, :]
    a_coef = 0.5 * xc**2 * ev**2
    b_coef = math.sqrt(params.delta) * params.rho * params.sigma * xc * ev
    c_vv = 0.5 * params.delta * params.sigma**2
    drift_v = params.delta * (params.a - params.b * np.exp(params.alpha * grid.v_nodes))
    n_v = grid.n_v
    j_upwind = np.where(drift_v >= 0.0, np.arange(n_v), np.arange(n_v) - 1)
    j_upwind = np.clip(j_upwind, 0, n_v - 2)
    dx, dv, r = grid.dx, grid.dv, params.r
    lo, hi = params.sigma_min, params.sigma_max

    def rhs(P, k):
        inner = P[1:-1]
        d_x = px(P, dx)
        pvv = np.zeros_like(d_x)
        pvv[:, 1:-1] = (inner[:, 2:] - 2.0 * inner[:, 1:-1] + inner[:, :-2]) / dv**2
        dfwd = (inner[:, 1:] - inner[:, :-1]) / dv
        pv = dfwd[:, j_upwind]
        ham = q_sup(a_coef * pxx(P, dx), b_coef * pxv(d_x, dv), lo, hi)
        out = ham + c_vv * pvv + drift_v[None, :] * pv
        if r != 0.0:
            out += r * (xc * d_x - inner)
        return out

    terminal = _terminal_slice(payoff, grid, cell_average_terminal)
    return explicit_march(params, payoff, grid, kept, terminal, rhs), kept


def axis_first_deriv(F, h, axis):
    F = np.moveaxis(F, axis, 0)
    out = np.empty_like(F)
    out[1:-1] = (F[2:] - F[:-2]) / (2.0 * h)
    out[0] = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * h)
    out[-1] = (3.0 * F[-1] - 4.0 * F[-2] + F[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def axis_second_deriv(F, h, axis):
    F = np.moveaxis(F, axis, 0)
    out = np.empty_like(F)
    h2 = h * h
    out[1:-1] = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / h2
    if F.shape[0] >= 4:
        out[0] = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / h2
        out[-1] = (2.0 * F[-1] - 5.0 * F[-2] + 4.0 * F[-3] - F[-4]) / h2
    else:
        out[0] = out[1]
        out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


def greeks(F, dx, dv):
    """``(delta, gamma, vega, vanna, vomma)`` of the slice ``F``."""
    delta = axis_first_deriv(F, dx, 0)
    return (delta, axis_second_deriv(F, dx, 0), axis_first_deriv(F, dv, 1),
            axis_first_deriv(delta, dv, 1), axis_second_deriv(F, dv, 1))
