"""The 2-D gather form of the bilinear read, kept as a test reference.

``surface._bilinear_read`` reads flat indices with ``take``; these
functions read ``F[ix, iv]`` corners and must give the same bits.
"""

import numpy as np


def gather_weights(grid, x, v, extrapolate=True):
    """Lower-left cell indices and in-cell offsets of the points ``(x, v)``;
    offsets clamped to ``[0, 1]`` unless ``extrapolate``."""
    fx = (np.asarray(x, dtype=float) - grid.x_min) / grid.dx
    fv = (np.asarray(v, dtype=float) - grid.v_min) / grid.dv
    ix = np.clip(np.floor(fx).astype(int), 0, grid.n_x)
    iv = np.clip(np.floor(fv).astype(int), 0, grid.n_v - 2)
    wx, wv = fx - ix, fv - iv
    if not extrapolate:
        wx = np.clip(wx, 0.0, 1.0)
        wv = np.clip(wv, 0.0, 1.0)
    return ix, iv, wx, wv


def gather_read(F, ix, iv, wx, wv):
    """Bilinear read through 2-D ``F[ix, iv]`` gathers."""
    return (
        F[ix, iv] * (1.0 - wx) * (1.0 - wv)
        + F[ix + 1, iv] * wx * (1.0 - wv)
        + F[ix, iv + 1] * (1.0 - wx) * wv
        + F[ix + 1, iv + 1] * wx * wv
    )
