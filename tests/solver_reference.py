"""The allocating form of the explicit marches, kept as a test reference.

``hjb._Marcher`` steps into two swapped buffers and its ``rhs`` closures
write into preallocated work arrays, with the v-stencils on the flattened
grid; these functions allocate every temporary, take the v-differences on
column slices, and must give the same bits.  Each returns
``(values, kept_times)``.  ``q_sup_parts`` is the q-sup kernel that
computes the stationary point at every concave node, and ``greeks`` the
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


def march(params, payoff, grid, kept, terminal, rhs, h0=None):
    """Backward march allocating a new slice every step."""
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


def solve_hjb_2d(params, payoff, grid, store_slices=False, max_kept_slices=601,
                 cell_average_terminal=False):
    _require_stability(params, grid, "full")
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
    return march(params, payoff, grid, kept, terminal, rhs), kept


def solve_bsb_1d(params, payoff, grid, v=None, store_slices=False,
                 max_kept_slices=601, cell_average_terminal=False):
    _require_stability(params, grid, "bsb", v)
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    xc = grid.x_nodes[1:-1][:, None]
    if v is None:
        e2v = np.exp(2.0 * grid.v_nodes)[None, :]
        width = grid.n_v
    else:
        e2v = np.array([[math.exp(2.0 * v)]])
        width = 1
    a_coef = 0.5 * xc**2 * e2v
    dx, r = grid.dx, params.r
    lo2, hi2 = params.sigma_min**2, params.sigma_max**2

    def rhs(P, k):
        d2 = pxx(P, dx)
        ham = a_coef * np.where(d2 >= 0.0, hi2, lo2) * d2
        if r != 0.0:
            ham = ham + r * (xc * px(P, dx) - P[1:-1])
        return ham

    terminal = _terminal_slice(payoff, grid, cell_average_terminal)[:, :width]
    values = march(params, payoff, grid, kept, terminal, rhs)
    if v is not None:
        values = np.repeat(values, grid.n_v, axis=2)
    return values, kept


def solve_corrector(params, payoff, grid, p0, store_slices=False,
                    max_kept_slices=601):
    assert p0.kind == "limit_p0" and p0.grid == grid and p0.v_constant is None
    assert dataclasses.replace(p0.params, delta=params.delta) == params
    assert params.r == 0.0
    _require_stability(params, grid, "corrector")
    kept = _kept_indices(grid.n_t, store_slices, max_kept_slices)
    xc = grid.x_nodes[1:-1][:, None]
    ev = np.exp(grid.v_nodes)[None, :]
    diff_coef = 0.5 * xc**2 * ev**2
    src_coef = params.rho * params.sigma * xc * ev
    dx, dv = grid.dx, grid.dv
    lo, hi = params.sigma_min, params.sigma_max

    def rhs(P, k):
        F0 = p0.values[p0.nearest_pos(k * grid.dt)]
        q0 = np.where(pxx(F0, dx) >= 0.0, hi, lo)
        source = q0 * src_coef * pxv(px(F0, dx), dv)
        return diff_coef * q0**2 * pxx(P, dx) + source

    terminal = np.zeros((grid.n_x + 2, grid.n_v))
    return march(params, payoff, grid, kept, terminal, rhs, h0=0.0), kept


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
