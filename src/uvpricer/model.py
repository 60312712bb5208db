"""Model parameters, payoff description, and grid geometry.

The market model has a risky asset ``X`` whose local volatility is
``q * exp(V)``: the multiplier ``q`` is only known to lie in an interval
``[sigma_min, sigma_max]``, while ``V`` is an ergodic diffusion

    dV = delta * (a - b * exp(alpha * V)) dt + sqrt(delta) * sigma dW2,

running on a slow time scale controlled by ``delta``.  The driving Brownian
motions of ``X`` and ``V`` have correlation ``rho``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Immutable container for the market and factor parameters.

    Attributes
    ----------
    r : float
        Risk-free rate, ``r >= 0``.
    a, b, alpha : float
        Drift coefficients of the volatility factor ``delta*(a - b*e^{alpha v})``;
        ``b > 0`` and ``alpha > 0`` so that the drift is mean reverting.
    sigma : float
        Diffusion coefficient (vol-of-vol) of the factor, ``sigma > 0``.
    rho : float
        Correlation between the asset and factor noises, ``|rho| <= 1``.
    sigma_min, sigma_max : float
        Bounds of the uncertain volatility multiplier, ``0 < sigma_min <= sigma_max``.
    delta : float
        Time-scale separation parameter, ``0 <= delta <= 1``.  ``delta = 0``
        freezes the factor at its initial value.
    """

    r: float
    a: float
    b: float
    alpha: float
    sigma: float
    rho: float
    sigma_min: float
    sigma_max: float
    delta: float

    def __post_init__(self):
        for name in dataclasses.fields(self):
            value = getattr(self, name.name)
            if not np.isfinite(value):
                raise ValueError(f"{name.name} must be finite, got {value!r}")
        if self.r < 0.0:
            raise ValueError(f"r must be non-negative, got {self.r}")
        if self.b <= 0.0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if abs(self.rho) > 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 < self.sigma_min <= self.sigma_max:
            raise ValueError(
                "volatility bounds must satisfy 0 < sigma_min <= sigma_max, "
                f"got [{self.sigma_min}, {self.sigma_max}]"
            )
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def theta(self) -> tuple[float, float]:
        """The admissible interval of the volatility multiplier."""
        return (self.sigma_min, self.sigma_max)

    def vol_bounds(self, v):
        """Effective spot-volatility interval ``[sigma_min e^v, sigma_max e^v]``.

        ``v`` may be a scalar or an array; the bounds are returned as a pair
        with the same shape.
        """
        ev = np.exp(v)
        return self.sigma_min * ev, self.sigma_max * ev

    def with_delta(self, delta: float) -> "ModelParams":
        """Copy of the parameters with a different time-scale ``delta``."""
        return dataclasses.replace(self, delta=delta)


@dataclass(frozen=True)
class PiecewiseLinearPayoff:
    """Continuous piecewise-linear payoff ``h(x)``.

    ``slopes[0]`` applies left of ``knots[0]``, ``slopes[i]`` on
    ``(knots[i-1], knots[i])`` and ``slopes[-1]`` right of ``knots[-1]``;
    ``anchor_value`` is ``h(knots[0])``.  The representation keeps the payoff
    globally Lipschitz with constant ``max |slopes|``.
    """

    knots: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor_value: float = 0.0

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        slopes = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "slopes", slopes)
        if len(knots) == 0:
            raise ValueError("payoff needs at least one knot")
        if len(slopes) != len(knots) + 1:
            raise ValueError(
                f"expected {len(knots) + 1} slopes for {len(knots)} knots, "
                f"got {len(slopes)}"
            )
        arr = np.asarray(knots)
        if not np.all(np.isfinite(arr)) or not np.all(np.isfinite(slopes)):
            raise ValueError("knots and slopes must be finite")
        if not np.isfinite(self.anchor_value):
            raise ValueError("anchor_value must be finite")
        if len(knots) > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError(f"knots must be strictly increasing, got {knots}")
        # Values of h at the knots, from the anchor leftward fold.
        values = [float(self.anchor_value)]
        for i in range(1, len(knots)):
            values.append(values[-1] + slopes[i] * (knots[i] - knots[i - 1]))
        object.__setattr__(self, "_knot_values", tuple(values))

    @property
    def lipschitz(self) -> float:
        """Global Lipschitz constant of the payoff."""
        return max(abs(s) for s in self.slopes)

    def __call__(self, x):
        """Evaluate ``h`` at scalar or array ``x``."""
        x_arr = np.asarray(x, dtype=float)
        knots = np.asarray(self.knots)
        slopes = np.asarray(self.slopes)
        values = np.asarray(self._knot_values)
        idx = np.searchsorted(knots, x_arr, side="right")
        ref = np.clip(idx - 1, 0, len(knots) - 1)
        out = values[ref] + slopes[idx] * (x_arr - knots[ref])
        if np.isscalar(x) or x_arr.ndim == 0:
            return float(out)
        return out

    def as_calls(self) -> tuple[float, float, list[tuple[float, float]]]:
        """Decompose into ``const + base_slope*x + sum w_m (x - k_m)^+``.

        Returns ``(const, base_slope, legs)`` with ``legs`` a list of
        ``(strike, weight)`` pairs, one per knot with a slope jump.
        """
        base_slope = self.slopes[0]
        const = self.anchor_value - base_slope * self.knots[0]
        legs = []
        for i, k in enumerate(self.knots):
            jump = self.slopes[i + 1] - self.slopes[i]
            if jump != 0.0:
                legs.append((k, jump))
        return const, base_slope, legs

    def average(self, lo: float, hi: float) -> float:
        """Exact mean of ``h`` over the interval ``[lo, hi]``.

        Piecewise linearity makes the trapezoid rule exact once the interior
        knots are inserted as breakpoints.
        """
        if not hi > lo:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        inner = [k for k in self.knots if lo < k < hi]
        pts = np.asarray([lo, *inner, hi])
        vals = self(pts)
        return float(np.trapezoid(vals, pts) / (hi - lo))

    @classmethod
    def call(cls, strike: float) -> "PiecewiseLinearPayoff":
        """Vanilla call ``(x - strike)^+``."""
        return cls(knots=(strike,), slopes=(0.0, 1.0))

    @classmethod
    def put(cls, strike: float) -> "PiecewiseLinearPayoff":
        """Vanilla put ``(strike - x)^+``."""
        return cls(knots=(strike,), slopes=(-1.0, 0.0))

    @classmethod
    def butterfly(cls, k_low: float, k_mid: float, k_high: float) -> "PiecewiseLinearPayoff":
        """Butterfly ``(x-k_low)^+ - 2(x-k_mid)^+ + (x-k_high)^+``."""
        if not k_low < k_mid < k_high:
            raise ValueError(
                f"butterfly strikes must increase, got {(k_low, k_mid, k_high)}"
            )
        return cls.from_calls([(k_low, 1.0), (k_mid, -2.0), (k_high, 1.0)])

    @classmethod
    def from_calls(
        cls,
        legs: list[tuple[float, float]],
        const: float = 0.0,
        base_slope: float = 0.0,
    ) -> "PiecewiseLinearPayoff":
        """Build a payoff from call legs plus an optional affine part.

        ``legs`` is a list of ``(strike, weight)``; strikes must be distinct.
        """
        if not legs:
            raise ValueError("need at least one call leg")
        legs = sorted((float(k), float(w)) for k, w in legs)
        strikes = [k for k, _ in legs]
        if len(set(strikes)) != len(strikes):
            raise ValueError(f"strikes must be distinct, got {strikes}")
        slopes = [base_slope]
        for _, w in legs:
            slopes.append(slopes[-1] + w)
        anchor = const + base_slope * strikes[0]
        return cls(knots=tuple(strikes), slopes=tuple(slopes), anchor_value=anchor)


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid for the finite-difference solvers.

    ``n_x`` counts interior asset nodes, so the asset axis holds ``n_x + 2``
    nodes including both boundaries and ``dx = (x_max - x_min)/(n_x + 1)``.
    The factor axis holds ``n_v`` nodes (edges included,
    ``dv = (v_max - v_min)/(n_v - 1)``); time is split into ``n_t`` equal
    steps of length ``dt = T/n_t``.
    """

    x_min: float
    x_max: float
    n_x: int
    v_min: float
    v_max: float
    n_v: int
    T: float
    n_t: int
    cfl_safety: float = 0.4

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("x bounds must be finite")
        if self.x_min < 0.0:
            raise ValueError(f"x_min must be non-negative, got {self.x_min}")
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not (np.isfinite(self.v_min) and np.isfinite(self.v_max)):
            raise ValueError("v bounds must be finite")
        if not self.v_max > self.v_min:
            raise ValueError(f"need v_min < v_max, got [{self.v_min}, {self.v_max}]")
        if self.n_x < 3:
            raise ValueError(f"n_x must be at least 3, got {self.n_x}")
        if self.n_v < 3:
            raise ValueError(f"n_v must be at least 3, got {self.n_v}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be positive, got {self.T}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be at least 1, got {self.n_t}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x + 1)

    @property
    def dv(self) -> float:
        return (self.v_max - self.v_min) / (self.n_v - 1)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def x_nodes(self) -> np.ndarray:
        """All asset nodes, boundaries included (length ``n_x + 2``)."""
        return np.linspace(self.x_min, self.x_max, self.n_x + 2)

    @property
    def v_nodes(self) -> np.ndarray:
        """Factor nodes (length ``n_v``)."""
        return np.linspace(self.v_min, self.v_max, self.n_v)

    @property
    def t_nodes(self) -> np.ndarray:
        """Time levels from 0 to ``T`` (length ``n_t + 1``)."""
        return np.linspace(0.0, self.T, self.n_t + 1)

    def _cell(self, x, v):
        """Lower-left node ``(ix, iv)`` of each point's cell and the point's
        offsets ``(wx, wv)`` from it, outside ``[0, 1]`` off the grid."""
        fx = (np.asarray(x, dtype=float) - self.x_min) / self.dx
        fv = (np.asarray(v, dtype=float) - self.v_min) / self.dv
        ix = np.clip(np.floor(fx).astype(int), 0, self.n_x)
        iv = np.clip(np.floor(fv).astype(int), 0, self.n_v - 2)
        return ix, iv, fx - ix, fv - iv

    def _nearest_node(self, x, v):
        """Flat index ``ix * n_v + iv`` of each point's nearest node."""
        ix = np.clip(np.rint((np.asarray(x) - self.x_min) / self.dx).astype(int),
                     0, self.n_x + 1)
        iv = np.clip(np.rint((np.asarray(v) - self.v_min) / self.dv).astype(int),
                     0, self.n_v - 1)
        return ix * self.n_v + iv

    def _x_cells(self):
        """Bounds ``(lo, hi)`` of each asset node's cell."""
        x, half = self.x_nodes, 0.5 * self.dx
        return x - half, x + half

    def contains(self, x: float, v: float) -> bool:
        """Whether ``(x, v)`` lies inside the closed grid rectangle."""
        return (self.x_min <= x <= self.x_max) and (self.v_min <= v <= self.v_max)

    def refined(self, factor_x: int = 1, factor_v: int = 1, factor_t: int = 1) -> "GridSpec":
        """Grid with each requested spacing divided by the given factor.

        Node counts are adjusted so the original boundary nodes survive:
        e.g. ``factor_x=2`` halves ``dx`` exactly.
        """
        if min(factor_x, factor_v, factor_t) < 1:
            raise ValueError("refinement factors must be >= 1")
        return dataclasses.replace(
            self,
            n_x=factor_x * (self.n_x + 1) - 1,
            n_v=factor_v * (self.n_v - 1) + 1,
            n_t=factor_t * self.n_t,
        )
