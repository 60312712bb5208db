"""Counter-based Gaussian increments with per-(path, step) addressing.

A Philox-4x64 keyed with the seed produces four 64-bit words per counter
value.  One counter value is dedicated to each ``(path, step)`` pair — block
index ``path * n_steps + step`` — and the first two words of the block become
the two standard normals for that step.  Consequences:

* the draw for a given ``(seed, path, step)`` never depends on how many paths
  are requested or how the batch is chunked, and
* disjoint path ranges can be generated independently (in parallel or
  lazily) and concatenated without overlap.

The normals are stored step-major: the array returned is a transposed view
of a C-contiguous ``(2, n_steps, n_paths)`` buffer, so each step's draws of
one channel are one contiguous row.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

_WORDS_PER_BLOCK = 4
_INV_2_53 = 2.0**-53
# Monte-Carlo chunks are capped near this many (path, step) cells.
_CHUNK_CELLS = 1 << 22
# Raw Philox words are drawn in path blocks of about this many cells, so a
# chunk never holds all of its raw words at once.
_BLOCK_CELLS = 1 << 16


def normal_increments(
    seed: int, n_paths: int, n_steps: int, first_path: int = 0, out=None
) -> np.ndarray:
    """Standard normal pairs for paths ``first_path .. first_path+n_paths-1``.

    Returns an array of shape ``(n_paths, n_steps, 2)``, a view of
    step-major storage: ``out`` when given (a float64 array of shape
    ``(2, n_steps, n_paths)``, possibly a strided slice of a larger
    buffer), else a fresh array.  Calling with ``first_path=k``
    reproduces rows ``k:`` of a larger call with ``first_path=0`` and the
    same ``(seed, n_steps)``.
    """
    # Imported here, not at module level: scipy.special is most of the
    # package's import time, and only draws need it.
    from scipy.special import ndtri

    if n_paths < 1 or n_steps < 1:
        raise ValueError(
            f"need n_paths >= 1 and n_steps >= 1, got {n_paths}, {n_steps}"
        )
    if first_path < 0:
        raise ValueError(f"first_path must be non-negative, got {first_path}")
    if out is None:
        out = np.empty((2, n_steps, n_paths))
    elif out.shape != (2, n_steps, n_paths) or out.dtype != np.float64:
        raise ValueError(
            f"out must be float64 of shape {(2, n_steps, n_paths)}, got "
            f"{out.dtype} {out.shape}"
        )
    block = max(1, _BLOCK_CELLS // n_steps)
    for p0 in range(0, n_paths, block):
        m = min(block, n_paths - p0)
        bitgen = Philox(key=seed, counter=(first_path + p0) * n_steps)
        raw = bitgen.random_raw(m * n_steps * _WORDS_PER_BLOCK)
        raw >>= np.uint64(11)
        words = raw.reshape(m, n_steps, _WORDS_PER_BLOCK)[:, :, :2].T
        # Top 53 bits -> uniform on (0, 1), strictly inside so ndtri stays
        # finite; the 53-bit integers convert to float64 exactly.
        dest = out[:, :, p0 : p0 + m]
        np.add(words, 0.5, out=dest)
        np.multiply(dest, _INV_2_53, out=dest)
    ndtri(out, out=out)
    return out.T


def chunk_ranges(n_paths: int, chunk_size: int):
    """Yield ``(first_path, count)`` pairs covering ``range(n_paths)``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    start = 0
    while start < n_paths:
        count = min(chunk_size, n_paths - start)
        yield start, count
        start += count
