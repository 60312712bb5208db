"""Constant-volatility closed forms used as references and sanity anchors.

When the multiplier interval degenerates (``sigma_min == sigma_max``) and the
factor is frozen (``delta == 0``), the worst-case price collapses to ordinary
Black-Scholes pricing at spot volatility ``q * exp(v)``.  These routines give
that benchmark in closed form for any piecewise-linear payoff.
"""

from __future__ import annotations

import numpy as np

from .model import PiecewiseLinearPayoff


def bs_call(x, strike: float, vol: float, tau: float, rate: float = 0.0):
    """Black-Scholes price of ``(X - strike)^+`` at time-to-maturity ``tau``.

    Degenerate inputs (``tau = 0`` or ``vol = 0``) return the discounted
    intrinsic value.  ``x`` may be a scalar or an array.
    """
    if tau < 0.0:
        raise ValueError(f"time to maturity must be non-negative, got {tau}")
    if vol < 0.0:
        raise ValueError(f"volatility must be non-negative, got {vol}")
    x_arr = np.asarray(x, dtype=float)
    disc = np.exp(-rate * tau)
    if tau == 0.0 or vol == 0.0:
        fwd = x_arr * np.exp(rate * tau)
        out = disc * np.maximum(fwd - strike, 0.0)
    else:
        # Imported on first use, as in :mod:`uvpricer.rng`.
        from scipy.special import ndtr

        srt = vol * np.sqrt(tau)
        with np.errstate(divide="ignore"):
            d1 = (np.log(x_arr / strike) + (rate + 0.5 * vol**2) * tau) / srt
        d2 = d1 - srt
        out = np.where(
            x_arr > 0.0,
            x_arr * ndtr(d1) - strike * disc * ndtr(d2),
            0.0,
        )
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def fixed_vol_price(
    payoff: PiecewiseLinearPayoff, x, vol: float, tau: float, rate: float = 0.0
):
    """Price the payoff under geometric Brownian motion at volatility ``vol``.

    Splits the payoff into an affine part plus call legs:
    the affine part prices by discounting and martingality of the discounted
    spot, each leg by :func:`bs_call`.
    """
    const, base_slope, legs = payoff.as_calls()
    x_arr = np.asarray(x, dtype=float)
    out = const * np.exp(-rate * tau) + base_slope * x_arr
    for strike, weight in legs:
        out = out + weight * bs_call(x_arr, strike, vol, tau, rate)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out
