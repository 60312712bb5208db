"""The two-asset loop of the coupled payoff gap, kept as a test reference.

``sde.coupled_payoff_gap`` steps the frozen-factor twin inside a consumer
of the one Euler march, chunk by chunk; this function draws every
increment at once and marches the moving asset and its twin side by side
in one loop over the steps, with the Euler steps written out, and must
give the same report field for field.
"""

import math

import numpy as np

from uvpricer.rng import normal_increments
from uvpricer.sde import CoupledGap


def mean_and_se(samples):
    n = samples.size
    mean = float(samples.mean())
    if n < 2:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / math.sqrt(n))


def coupled_payoff_gap(params, payoff, x0, v0, q, n_paths, n_steps, T, seed):
    """Mean-square terminal gaps of the moving and frozen-factor assets."""
    p = params
    dt = T / n_steps
    sq_dt = math.sqrt(dt)
    z = normal_increments(seed, n_paths, n_steps)
    dw1 = sq_dt * z[:, :, 0].T
    dw2 = (math.sqrt(max(0.0, 1.0 - p.rho * p.rho)) * sq_dt * z[:, :, 1].T
           + p.rho * dw1)
    ev0 = math.exp(v0)
    log_x_mov = np.full(n_paths, math.log(x0))
    log_x_frz = np.full(n_paths, math.log(x0))
    v = np.full(n_paths, float(v0))
    for k in range(n_steps):
        ev = np.exp(v)
        log_x_mov += (p.r - 0.5 * q * q * ev * ev) * dt + q * ev * dw1[k]
        log_x_frz += (p.r - 0.5 * q * q * ev0 * ev0) * dt + q * ev0 * dw1[k]
        if p.delta != 0.0:
            v = v + p.delta * (p.a - p.b * np.exp(p.alpha * v)) * dt
            v += math.sqrt(p.delta) * p.sigma * dw2[k]
    x_mov = np.exp(log_x_mov)
    x_frz = np.exp(log_x_frz)
    gap, gap_se = mean_and_se((x_mov - x_frz) ** 2)
    pay, pay_se = mean_and_se((payoff(x_mov) - payoff(x_frz)) ** 2)
    return CoupledGap(gap_sq=gap, std_error=gap_se, payoff_gap_sq=pay,
                      payoff_std_error=pay_se, n_paths=n_paths)
