"""Second-order BSDE representation checks against a solved price surface.

The worst-case price admits a backward representation along trivial forward
dynamics: both state coordinates are driven directly by a standard
two-dimensional Brownian motion, and the entire model enters through the
driver, which absorbs the nonlinear diffusion coefficient.  For the value
function ``u`` of the pricing equation (without discounting) the driver
identity is ``f = du/dt``, so

* ``Y_s = u(s, X_s)`` integrates ``dY = f ds + Z . dW + (S11 + S22)/2 ds``
  (the Ito form of the Stratonovich pairing against ``dX = dW``),
* ``Y_T`` must reproduce the payoff, and
* the price surface evaluated along worst-case paths is a martingale
  (supermartingale under any other admissible control).

This module builds the drivers, runs the forward/backward simulation with
fields read off a stored surface, and reports the terminal residual and
martingale drift as representation diagnostics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import sde
from .model import ModelParams, PiecewiseLinearPayoff
from .rng import _check_seed, chunk_ranges
from .sde import _march_chunks, _mean_and_se, _shared
from .surface import (
    GreekFields,
    PriceSurface,
    _bilinear_read,
    _bilinear_weights,
    _require_dense_slices,
    _SliceMemo,
    _write_json,
    greeks,
)


@dataclass(frozen=True)
class DriverSpec:
    """Driver of the backward equation under trivial forward dynamics.

    ``kind`` selects the moving-factor driver (``f_delta``) or its frozen
    limit (``f0``).  The coefficients are the ones forced by the pricing
    equation — quadratic in the asset coordinate, with the curvature-sign
    multiplier applied to both asset terms.
    """

    kind: str
    params: ModelParams

    def __post_init__(self):
        if self.kind not in ("f0", "f_delta"):
            raise ValueError(f"driver kind must be f0 or f_delta, got {self.kind!r}")

    def sigma_bar(self, s11):
        """Curvature-sign multiplier: sigma_max where the entry is >= 0."""
        p = self.params
        return np.where(np.asarray(s11) >= 0.0, p.sigma_max, p.sigma_min)

    def __call__(self, x, v, z2, s11, s12, s22):
        """Evaluate the driver at state (x, v) with gradient entry ``z2``
        and Hessian entries ``s11, s12, s22`` (time and y do not enter)."""
        p = self.params
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        ev = np.exp(v)
        sb = self.sigma_bar(s11)
        out = -0.5 * (x * x) * ev * ev * sb * sb * np.asarray(s11)
        if self.kind == "f_delta":
            cross = (
                math.sqrt(p.delta) * x * ev * p.sigma * p.rho
                * sb * np.asarray(s12)
            )
            out = out - cross - p.delta * (
                0.5 * p.sigma**2 * np.asarray(s22)
                + (p.a - p.b * np.exp(p.alpha * v)) * np.asarray(z2)
            )
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class BsdeResidualReport:
    """Terminal residual of the backward representation.

    ``y0_fd`` is the surface value at the start point; ``y0_mean`` is the
    Monte-Carlo-implied initial value (``y0_fd`` plus the mean signed
    residual), which matches ``y0_fd`` when the representation holds in
    mean; ``terminal_residual_rms`` is the root-mean-square of
    ``Y_T - h(X_T)`` over the paths that stayed on the grid.
    """

    y0_fd: float
    y0_mean: float
    terminal_residual_rms: float
    n_paths_used: int
    n_paths_discarded: int

    def __post_init__(self):
        if self.terminal_residual_rms < 0.0:
            raise ValueError("terminal residual RMS cannot be negative")
        if self.n_paths_used < 0 or self.n_paths_discarded < 0:
            raise ValueError("path counts cannot be negative")

    @property
    def n_paths(self) -> int:
        return self.n_paths_used + self.n_paths_discarded

    @property
    def discard_fraction(self) -> float:
        return self.n_paths_discarded / max(self.n_paths, 1)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["discard_fraction"] = self.discard_fraction
        return d

    def to_json(self, path, extra: dict | None = None) -> None:
        """Write every field (plus ``extra`` entries) as a JSON document."""
        _write_json(path, {**self.as_dict(), **(extra or {})})


@dataclass(frozen=True)
class MartingaleReport:
    """Monte-Carlo drift of the surface value along simulated paths."""

    drift_estimate: float
    std_error: float
    n_paths: int
    policy_tag: str

    def __iter__(self):
        return iter((self.drift_estimate, self.std_error))


def _driver_for_surface(surface: PriceSurface, params: ModelParams) -> DriverSpec:
    """The surface's driver under its own ``params``; the f0 driver has no
    delta, so a limit_p0 surface may differ in it."""
    kind = {"full_delta": "f_delta", "limit_p0": "f0"}.get(surface.kind)
    if kind is None:
        raise ValueError(
            f"no driver is associated with surface kind {surface.kind!r}"
        )
    solved = surface.params
    if surface.kind == "limit_p0":
        solved = solved.with_delta(params.delta)
    if solved != params:
        raise ValueError("parameter mismatch with the surface (only delta "
                         "may differ, and only on a limit_p0 surface)")
    return DriverSpec(kind=kind, params=params)


def _check_residual_run(grid, x0: float, v0: float, n_paths: int,
                        n_steps: int, seed) -> None:
    """Refuse a start point off the grid interior, a path or step count
    below one and a seed Philox cannot take, before anything is solved or
    simulated."""
    if not (grid.x_min < x0 < grid.x_max and grid.v_min < v0 < grid.v_max):
        raise ValueError(
            f"start point ({x0}, {v0}) is not inside the grid interior"
        )
    if n_paths <= 0 or n_steps <= 0:
        raise ValueError("n_paths and n_steps must be positive")
    _check_seed(seed)


def _greeks_at_steps(surface: PriceSurface, n_steps: int):
    """``k ->`` the Greeks at path step ``k`` of ``n_steps``: the retained
    slice's nearest in time or, on a surface kept at each of fewer steps,
    linear in time between the two slices around the step (a nearest read
    would lag by up to half a surface step)."""
    n_t, dt, t_s = surface.grid.n_t, surface.grid.T / n_steps, surface.grid.dt
    lower, upper = _SliceMemo(surface, greeks), _SliceMemo(surface, greeks)
    if n_t >= n_steps:
        return lambda k: lower(k * dt)

    def at(k):
        k0, rest = divmod(k * n_t, n_steps)
        g, w = lower(k0 * t_s), rest / n_steps
        return g if not rest else GreekFields(*((1.0 - w) * a + w * b for a, b in zip(
            vars(g).values(), vars(upper((k0 + 1) * t_s)).values())))

    return at


def simulate_2bsde_residual(
    surface: PriceSurface,
    params: ModelParams,
    x_tilde0: tuple[float, float],
    n_paths: int,
    n_steps: int,
    seed: int,
    payoff: PiecewiseLinearPayoff | None = None,
    normals: dict | None = None,
) -> BsdeResidualReport:
    """Forward-simulate the backward representation and report the residual.

    Both state coordinates evolve as independent standard Brownian
    increments from ``x_tilde0``.  At each step the gradient and Hessian
    fields are read off the surface (bilinear in the state, nearest
    retained slice in time, or linear in time on a surface of fewer steps
    than the simulation) and ``Y`` is advanced by ``f dt + Z . dW +
    (S11 + S22)/2 dt`` from ``Y_0 = u(0, x_tilde0)``.  Paths leaving the
    grid rectangle are discarded from the residual and counted.  The
    terminal payoff is evaluated exactly when ``payoff`` is given, else
    read from the stored terminal slice.

    The retained slices must be at least as dense in time as the
    simulation steps or all be kept, so a read never skips a level.
    ``normals`` are standard normals of the batch drawn ahead, as
    :meth:`sde._DrawAhead.ready` returns them; the call spends them.
    """
    grid = surface.grid
    x0, v0 = float(x_tilde0[0]), float(x_tilde0[1])
    _check_residual_run(grid, x0, v0, n_paths, n_steps, seed)
    _require_dense_slices(surface, n_steps, surface.kind)
    driver = _driver_for_surface(surface, params)
    dt = grid.T / n_steps
    y0_fd = surface.value_at(0, x0, v0)
    terminal = surface.slice_at(grid.n_t)
    fields_at = _greeks_at_steps(surface, n_steps)
    resid = _shared((n_paths,))
    alive_out = _shared((n_paths,), bool)

    def march(first, m, dw1, dw2):
        x = np.full(m, x0)
        v = np.full(m, v0)
        y = np.full(m, y0_fd)
        alive = np.ones(m, dtype=bool)
        for k in range(n_steps):
            g = fields_at(k)
            if not alive.any():
                break
            # Every path is read; a path that left the grid keeps its exit
            # state and only the alive paths' results are used.
            cell = _bilinear_weights(grid, x, v)
            z1 = _bilinear_read(g.delta, *cell)
            z2 = _bilinear_read(g.vega, *cell)
            s11 = _bilinear_read(g.gamma, *cell)
            s12 = _bilinear_read(g.vanna, *cell)
            s22 = _bilinear_read(g.vomma, *cell)
            f = driver(x, v, z2, s11, s12, s22)
            dy = (f + 0.5 * (s11 + s22)) * dt + z1 * dw1[k] + z2 * dw2[k]
            np.add(y, dy, out=y, where=alive)
            np.add(x, dw1[k], out=x, where=alive)
            np.add(v, dw2[k], out=v, where=alive)
            alive &= (
                (x >= grid.x_min) & (x <= grid.x_max)
                & (v >= grid.v_min) & (v <= grid.v_max)
            )
        alive_out[first:first + m] = alive
        idx = np.flatnonzero(alive)
        if idx.size:
            if payoff is not None:
                h_term = np.asarray(payoff(x[idx]), dtype=float)
            else:
                h_term = _bilinear_read(
                    terminal, *_bilinear_weights(grid, x[idx], v[idx])
                )
            resid[first + idx] = h_term - y[idx]

    # Independent increments (rho = 0).  A half of up to _CHUNK_CELLS cells
    # marches as one chunk, so each process derives every slice's Greeks once.
    _march_chunks(0.0, n_paths, n_steps, dt, seed, False, march, normals)
    n_used = int(np.count_nonzero(alive_out))
    if n_used == 0:
        raise RuntimeError(
            "every path left the grid before maturity; enlarge the domain"
        )
    # Summed in path order over blocks of half a chunk budget of paths, the
    # grouping y0_mean and the RMS have always had, so they keep their bits.
    sum_resid = sum_sq = 0.0
    block = max(1, sde._CHUNK_CELLS // (2 * n_steps))
    for first, count in chunk_ranges(n_paths, block):
        r = resid[first:first + count][alive_out[first:first + count]]
        sum_resid += float(r.sum())
        sum_sq += float((r**2).sum())
    return BsdeResidualReport(
        y0_fd=float(y0_fd),
        y0_mean=float(y0_fd + sum_resid / n_used),
        terminal_residual_rms=math.sqrt(sum_sq / n_used),
        n_paths_used=int(n_used),
        n_paths_discarded=int(n_paths - n_used),
    )


def martingale_check(
    surface: PriceSurface,
    params: ModelParams,
    q_policy,
    x0: float,
    v0: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> MartingaleReport:
    """Drift of the surface value along model paths under a control.

    Simulates the model state under ``q_policy`` (a fixed multiplier or a
    policy object) and estimates ``E[P(T, X_T, V_T) - P(0, x0, v0)]``.
    Zero within noise certifies the martingale property of the worst-case
    control; a negative drift shows a fixed control is suboptimal
    (supermartingale).  Requires the undiscounted setting.
    """
    if params.r != 0.0:
        raise ValueError("martingale check is defined for r = 0")
    batch, x_t, v_t = sde._simulate(params, x0, v0, q_policy, n_paths, n_steps,
                                    surface.grid.T, seed, 0)
    m0 = surface.value_at(0, x0, v0)
    m_term = surface.value_at(surface.grid.n_t, x_t, v_t)
    drift, std_error = _mean_and_se(m_term - m0)
    return MartingaleReport(
        drift_estimate=drift,
        std_error=std_error,
        n_paths=int(n_paths),
        policy_tag=batch.control_tag,
    )


def driver_consistency(
    surface: PriceSurface,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice RMS gap between the discrete time derivative and the driver.

    For each adjacent pair of retained slices the backward time difference
    of the surface is compared, on interior nodes, with the driver
    evaluated from the later slice's discrete Greeks, under ``params``,
    the surface's own (only delta may differ, and only on a limit_p0
    surface).  Returns the slice times and the RMS profile; the profile
    shrinks as the space and time steps do, as both sides converge to
    ``du/dt``.
    """
    driver = _driver_for_surface(surface, params)
    if surface.n_kept < 2:
        raise ValueError("need at least two retained slices")
    grid = surface.grid
    X = grid.x_nodes[1:-1, None]
    V = grid.v_nodes[None, 1:-1]
    times = []
    rms = []
    for pos in range(1, surface.n_kept):
        k0, k1 = surface.kept_times[pos - 1], surface.kept_times[pos]
        g = greeks(surface, k1)
        f = driver(
            np.broadcast_to(X, (X.shape[0], V.shape[1])),
            np.broadcast_to(V, (X.shape[0], V.shape[1])),
            g.vega[1:-1, 1:-1],
            g.gamma[1:-1, 1:-1],
            g.vanna[1:-1, 1:-1],
            g.vomma[1:-1, 1:-1],
        )
        du_dt = (
            surface.values[pos][1:-1, 1:-1] - surface.values[pos - 1][1:-1, 1:-1]
        ) / ((k1 - k0) * grid.dt)
        times.append(k1 * grid.dt)
        rms.append(float(np.sqrt(np.mean((du_dt - f) ** 2))))
    return np.asarray(times), np.asarray(rms)
