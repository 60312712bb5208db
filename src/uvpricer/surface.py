"""Price surfaces on the (t, x, v) grid and fields derived from them.

A :class:`PriceSurface` stores selected time slices of a finite-difference
solve, tagged by ``kind``:

* ``full_delta`` — the worst-case price with the moving factor,
* ``limit_p0``  — the frozen-factor (delta = 0) limit price,
* ``corrector_p1`` — the first-order correction term.

From a slice one can read discrete Greeks, extract the pointwise optimal
volatility multiplier, and build masks of the curvature zero set and of the
nodes where the moving-factor and limit controls disagree.  The kernels the
solvers and Monte-Carlo checks share live here too: the difference
stencils, bilinear reads, the pointwise sup over the multiplier, the
last-slice memo, the slice-density check and the artifact writers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import GridSpec, ModelParams


def _write_header(fh, header_lines) -> None:
    """Write each artifact header line as a ``# `` comment."""
    for line in header_lines:
        fh.write(f"# {line}\n")


# Rows formatted per block: the texts of one block are alive at a time,
# so a large artifact does not raise the peak memory.
_CSV_BLOCK_ROWS = 1024


def _block_texts(column: np.ndarray) -> list[str]:
    """``repr`` of each entry's Python scalar, made once per distinct value.

    Floats are told apart by their bit pattern, so ``-0.0`` and ``0.0``
    keep their own text.
    """
    key = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    texts = np.array([repr(value) for value in column[first].tolist()],
                     dtype=object)
    return texts[inverse].tolist()


def _write_csv(path, header_lines, names, *columns) -> None:
    """Write a CSV artifact: the header lines as ``# `` comments, the column
    names, then one row per entry of the equal-length 1-D ``columns``, each
    value as the ``repr`` of its Python scalar.  The names and rows end in
    CRLF, as :mod:`csv`'s excel dialect ends them; no value needs quoting."""
    columns = [np.asarray(column) for column in columns]
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="") as fh:
        _write_header(fh, header_lines)
        fh.write(",".join(names) + "\r\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = [_block_texts(column[start:start + _CSV_BLOCK_ROWS])
                     for column in columns]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*block))


def _write_json(path, doc: dict) -> None:
    """Write ``doc`` as an indented, key-sorted JSON artifact."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _diff(hi, lo, step: float, out: np.ndarray) -> np.ndarray:
    """``(hi - lo) / step`` into ``out``: one subtraction, then one division
    by the caller's spacing (``2.0 * dx``, ``dv``), never by a reciprocal
    or inside a coefficient."""
    np.subtract(hi, lo, out=out)
    return np.divide(out, step, out=out)


def _diff2(up, mid, down, step2: float, out: np.ndarray) -> np.ndarray:
    """``(up - 2.0 * mid + down) / step2`` into ``out``, in that expression's
    order, dividing by the caller's squared spacing (``dx**2``, ``h * h``)
    as :func:`_diff` does.  ``out`` may not overlap ``up`` or ``down``."""
    np.multiply(mid, 2.0, out=out)
    np.subtract(up, out, out=out)
    np.add(out, down, out=out)
    return np.divide(out, step2, out=out)


# The interiors are differenced into a new array and copied: on the
# v-axis, a kernel writing into the strided ``out[1:-1]`` ran slower.
def _axis_first_deriv(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central first derivative, second-order one-sided at the two edges."""
    F = F.swapaxes(0, axis)
    out = np.empty_like(F)
    out[1:-1] = _diff(F[2:], F[:-2], 2.0 * h, np.empty_like(F[2:]))
    out[0] = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * h)
    out[-1] = (3.0 * F[-1] - 4.0 * F[-2] + F[-3]) / (2.0 * h)
    return out.swapaxes(0, axis)


def _axis_second_deriv(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central second derivative; one-sided (second order when the axis has
    at least four nodes, else copied from the nearest interior) at edges."""
    F = F.swapaxes(0, axis)
    out = np.empty_like(F)
    h2 = h * h
    out[1:-1] = _diff2(F[2:], F[1:-1], F[:-2], h2, np.empty_like(F[2:]))
    if F.shape[0] >= 4:
        out[0] = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / h2
        out[-1] = (2.0 * F[-1] - 5.0 * F[-2] + 4.0 * F[-3] - F[-4]) / h2
    else:
        out[0] = out[1]
        out[-1] = out[-2]
    return out.swapaxes(0, axis)


@dataclass(frozen=True)
class GreekFields:
    """Discrete sensitivities of one time slice on the full node grid."""

    delta: np.ndarray
    gamma: np.ndarray
    vega: np.ndarray
    vanna: np.ndarray
    vomma: np.ndarray


@dataclass(frozen=True)
class ControlField:
    """Pointwise optimal volatility multiplier on one time slice."""

    q_star: np.ndarray
    source_kind: str
    gamma_tolerance: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.q_star)):
            raise ValueError("control field contains non-finite entries")

    def to_csv(self, path, x_nodes, v_nodes, header_lines=()) -> None:
        """Write the field as ``x,v,q_star`` rows."""
        x = np.asarray(x_nodes, dtype=float)
        v = np.asarray(v_nodes, dtype=float)
        _write_csv(path, header_lines, ("x", "v", "q_star"),
                   np.repeat(x, v.size), np.tile(v, x.size),
                   np.ravel(self.q_star))


@dataclass(frozen=True)
class MismatchMasks:
    """Curvature zero set and control-disagreement set on one time slice.

    ``s0`` marks nodes where the limit curvature is inside the dead band;
    ``a_delta`` marks nodes where the moving-factor curvature is positive
    while the limit curvature is negative (both beyond the dead band), i.e.
    where the two bang-bang controls genuinely disagree.
    """

    a_delta: np.ndarray
    s0: np.ndarray
    gamma_tolerance: float

    @property
    def a_delta_fraction(self) -> float:
        return float(self.a_delta.mean())


@dataclass(frozen=True)
class PriceSurface:
    """Selected time slices of a finite-difference solve.

    ``values`` has shape ``(n_kept, n_x + 2, n_v)`` with rows ordered by
    ``kept_times`` (ascending time indices; 0 and ``n_t`` always present).
    ``v_constant`` is set when the solve ran at a single factor level and
    the v-axis is a broadcast copy.
    """

    values: np.ndarray
    grid: GridSpec
    params: ModelParams
    kind: str
    kept_times: tuple[int, ...]
    v_constant: float | None = None

    def __post_init__(self):
        kept = tuple(int(k) for k in self.kept_times)
        object.__setattr__(self, "kept_times", kept)
        if kept != tuple(sorted(set(kept))):
            raise ValueError("kept_times must be strictly increasing")
        if kept[0] != 0 or kept[-1] != self.grid.n_t:
            raise ValueError("kept_times must include 0 and n_t")
        expected = (len(kept), self.grid.n_x + 2, self.grid.n_v)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("surface contains non-finite values")
        # Slice lookups run once per step of the marches and path loops
        # that read a surface, so the index and time arrays are made once.
        object.__setattr__(self, "_kept", np.asarray(kept))
        object.__setattr__(self, "_times", self._kept * self.grid.dt)

    @property
    def n_kept(self) -> int:
        return len(self.kept_times)

    def pos_of(self, time_index: int) -> int:
        """Storage row of an exact time index; KeyError when not retained."""
        kept = self._kept
        pos = int(np.searchsorted(kept, time_index))
        if pos >= len(kept) or kept[pos] != time_index:
            raise KeyError(
                f"time slice {time_index} not retained (kept: "
                f"{self.n_kept} of {self.grid.n_t + 1})"
            )
        return pos

    def nearest_pos(self, t: float) -> int:
        """Storage row whose time value is closest to ``t``; ties to the
        first."""
        return int(np.abs(self._times - t).argmin())

    def slice_at(self, time_index: int) -> np.ndarray:
        """The (n_x+2, n_v) slice at an exact time index."""
        return self.values[self.pos_of(time_index)]

    def value_at(self, time_index: int, x, v, extrapolate: bool = True):
        """Bilinear read of the slice at ``time_index``; linear extrapolation
        outside the rectangle unless ``extrapolate`` is False (then clamped)."""
        F = self.slice_at(time_index)
        return _bilinear(self.grid, F, x, v, extrapolate)

    def to_csv(self, path, time_indices=None, header_lines=()) -> None:
        """Write ``t,x,v,value`` rows for the chosen time indices
        (default: the initial and terminal slices)."""
        if time_indices is None:
            time_indices = (0, self.grid.n_t)
        grid = self.grid
        ks = list(time_indices)
        times = np.array([k * grid.dt for k in ks], dtype=float)
        _write_csv(path, header_lines, ("t", "x", "v", "value"),
                   np.repeat(times, (grid.n_x + 2) * grid.n_v),
                   np.tile(np.repeat(grid.x_nodes, grid.n_v), len(ks)),
                   np.tile(grid.v_nodes, (grid.n_x + 2) * len(ks)),
                   self.values[[self.pos_of(int(k)) for k in ks]].ravel())


def _bilinear_weights(grid: GridSpec, x, v, extrapolate: bool = True):
    """Cell of the points ``(x, v)`` for :func:`_bilinear_read`.

    Returns the flat index ``ix * n_v + iv`` of each lower-left node, the
    flat index of its ``ix + 1`` neighbour, the in-cell offsets ``wx``,
    ``wv`` and their complements ``1 - wx``, ``1 - wv``.  Offsets outside
    ``[0, 1]`` extrapolate linearly unless ``extrapolate`` is False (then
    they are clamped).
    """
    ix, iv, wx, wv = grid._cell(x, v)
    if not extrapolate:
        wx = np.clip(wx, 0.0, 1.0)
        wv = np.clip(wv, 0.0, 1.0)
    lower = ix * grid.n_v + iv
    return lower, lower + grid.n_v, wx, wv, 1.0 - wx, 1.0 - wv


def _bilinear_read(F: np.ndarray, lower, upper, wx, wv, ux, uv):
    """Bilinear combination of ``F`` over a cell from :func:`_bilinear_weights`.

    The four corners are 1-D ``take`` reads of the flattened slice (the
    ``iv + 1`` corners read the same indices one element further on).
    """
    flat = np.asarray(F, dtype=float).ravel()
    up = flat[1:]
    # In place, in the order of the 2-D form's left-to-right expression
    # ``F00 * ux * uv + F10 * wx * uv + F01 * ux * wv + F11 * wx * wv``.
    out = flat.take(lower)
    out *= ux
    out *= uv
    for src, index, w, u in ((flat, upper, wx, uv), (up, lower, ux, wv),
                             (up, upper, wx, wv)):
        corner = src.take(index)
        corner *= w
        corner *= u
        out += corner
    return out


def _bilinear(grid: GridSpec, F: np.ndarray, x, v, extrapolate: bool):
    out = _bilinear_read(F, *_bilinear_weights(grid, x, v, extrapolate))
    if np.isscalar(x) and np.isscalar(v):
        return float(out)
    return out


def greeks(surface: PriceSurface, time_index: int) -> GreekFields:
    """Discrete Greeks of the retained slice at ``time_index``.

    Central differences in the interior, second-order one-sided at the
    boundary nodes; the mixed derivative composes the two first-derivative
    stencils.
    """
    F = surface.slice_at(time_index)
    dx = surface.grid.dx
    dv = surface.grid.dv
    delta = _axis_first_deriv(F, dx, axis=0)
    return GreekFields(
        delta=delta,
        gamma=_axis_second_deriv(F, dx, axis=0),
        vega=_axis_first_deriv(F, dv, axis=1),
        vanna=_axis_first_deriv(delta, dv, axis=1),
        vomma=_axis_second_deriv(F, dv, axis=1),
    )


def default_gamma_tolerance(surface: PriceSurface) -> float:
    """Curvature dead band: 1e-6 times the payoff scale over dx^2.

    Discrete curvature of a kinked terminal condition has spikes of order
    ``|h|/dx^2``; the dead band is a small fraction of that scale.
    """
    payoff_scale = float(np.max(np.abs(surface.values[-1])))
    return max(1e-6 * payoff_scale / surface.grid.dx**2, 1e-12)


def _q_sup(aa, bb, lo: float, hi: float, out=None):
    """Pointwise supremum of ``f(q) = q^2 aa + q bb`` over ``q in [lo, hi]``.

    ``aa`` and ``bb`` share one shape and ``0 < lo <= hi``.  Both endpoints
    are tried, plus the stationary point ``q_hat = -bb / (2 aa)`` where the
    quadratic is concave and ``q_hat`` is interior.  As ``q_hat > lo > 0``
    needs ``aa < 0 < bb``, ``q_hat`` is computed only at those nodes and
    ``f(q_hat)`` only where it is interior.  ``out`` is an optional tuple
    of C-contiguous arrays of that shape: three receiving ``(sup, f_lo,
    f_hi)``, then two boolean ones for the candidate masks.
    Returns ``(sup, f_lo, f_hi, inside, q_inside)``: ``inside`` holds the
    flat indices where ``q_hat`` is interior and ``q_inside`` the ``q_hat``
    there; ``sup`` exceeds ``max(f_lo, f_hi)`` exactly where ``f(q_hat)``
    wins.  Overflow and invalid operations (an infinite ``bb`` over an
    infinite ``aa``) are not warned about.
    """
    if out is None:
        out = (*(np.empty(np.shape(aa)) for _ in range(3)),
               *(np.empty(np.shape(aa), dtype=bool) for _ in range(2)))
    sup, f_lo, f_hi, concave, rising = out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.multiply(aa, lo * lo, out=f_lo)
        np.add(f_lo, np.multiply(bb, lo, out=sup), out=f_lo)
        np.multiply(aa, hi * hi, out=f_hi)
        np.add(f_hi, np.multiply(bb, hi, out=sup), out=f_hi)
        np.maximum(f_lo, f_hi, out=sup)
        np.less(aa, 0.0, out=concave)
        np.greater(bb, 0.0, out=rising)
        candidates = np.logical_and(concave, rising,
                                    out=concave).ravel().nonzero()[0]
        a, b = aa.take(candidates), bb.take(candidates)
        q_hat = -b / (2.0 * a)
        interior = (q_hat > lo) & (q_hat < hi)
        inside = candidates[interior]
        a, b, q_hat = a[interior], b[interior], q_hat[interior]
        f_hat = -(b * b) / (4.0 * a)
        # b * b leaves the normal range unless 2**-511 <= b < 2**512; there
        # f(q_hat) is taken as the equal b q_hat / 2.
        if b.min(initial=1.0) < 2.0**-511 or b.max(initial=1.0) >= 2.0**512:
            lost = (b < 2.0**-511) | (b >= 2.0**512)
            f_hat[lost] = 0.5 * b[lost] * q_hat[lost]
        sup.put(inside, np.maximum(sup.take(inside), f_hat))
    return sup, f_lo, f_hi, inside, q_hat


def _q_argsup(aa, bb, lo: float, hi: float, out=None) -> np.ndarray:
    """A maximizer of :func:`_q_sup`'s quadratic; ties go to ``hi``.  With
    ``out`` as for :func:`_q_sup`, which a march reuses every step, the
    supremum stays in its first array and the maximizer is written over its
    second (``f_lo``)."""
    sup, q, f_hi, inside, q_inside = _q_sup(aa, bb, lo, hi, out)
    wins = sup.take(inside) > np.maximum(q.take(inside), f_hi.take(inside))
    higher = f_hi >= q
    q.fill(lo)
    np.copyto(q, hi, where=higher)
    q.put(inside[wins], q_inside[wins])
    return q


def optimal_control_field(
    surface: PriceSurface,
    params: ModelParams,
    time_index: int,
    gamma_tolerance: float | None = None,
) -> ControlField:
    """Pointwise maximizing multiplier on the slice at ``time_index``.

    For a ``limit_p0`` surface this is the bang-bang rule (``sigma_max``
    where the curvature is above ``-gamma_tolerance``, else ``sigma_min``).
    For ``full_delta`` the quadratic in ``q`` built from the discrete
    curvature and vanna is maximized over the two endpoints and, where the
    quadratic is concave, its interior stationary point.  Ties go to
    ``sigma_max``.
    """
    if surface.kind not in ("full_delta", "limit_p0"):
        raise ValueError(
            f"control extraction needs a price surface, got kind={surface.kind!r}"
        )
    return _control_field(surface, params, greeks(surface, time_index), gamma_tolerance)


def _control_field(surface, params, g, gamma_tolerance):
    """:func:`optimal_control_field` from the slice's Greeks ``g``."""
    if gamma_tolerance is None:
        gamma_tolerance = default_gamma_tolerance(surface)
    lo, hi = params.sigma_min, params.sigma_max
    if surface.kind == "limit_p0":
        q = np.where(g.gamma >= -gamma_tolerance, hi, lo)
    else:
        x = surface.grid.x_nodes[:, None]
        ev = np.exp(surface.grid.v_nodes)[None, :]
        aa = 0.5 * ev**2 * x**2 * g.gamma
        bb = np.sqrt(params.delta) * params.rho * params.sigma * x * ev * g.vanna
        q = _q_argsup(aa, bb, lo, hi)
    return ControlField(
        q_star=q, source_kind=surface.kind, gamma_tolerance=float(gamma_tolerance)
    )


def mismatch_set(
    p_delta: PriceSurface,
    p0: PriceSurface,
    time_index: int,
    gamma_tolerance: float | None = None,
) -> MismatchMasks:
    """Masks of the limit-curvature zero set and the control-disagreement set.

    Both surfaces must live on the same grid.  A node lands in the
    disagreement set when the moving-factor curvature exceeds the dead band
    while the limit curvature lies below its negative.
    """
    if p_delta.kind != "full_delta" or p0.kind != "limit_p0":
        raise ValueError(
            "expected (full_delta, limit_p0) surfaces, got "
            f"({p_delta.kind!r}, {p0.kind!r})"
        )
    if p_delta.grid != p0.grid:
        raise ValueError("surfaces live on different grids")
    if gamma_tolerance is None:
        gamma_tolerance = default_gamma_tolerance(p_delta)
    g_delta = greeks(p_delta, time_index).gamma
    g_zero = greeks(p0, time_index).gamma
    s0 = np.abs(g_zero) <= gamma_tolerance
    a_delta = (g_delta > gamma_tolerance) & (g_zero < -gamma_tolerance)
    return MismatchMasks(
        a_delta=a_delta, s0=s0, gamma_tolerance=float(gamma_tolerance)
    )


class _SliceMemo:
    """``derive(surface, time_index)`` of the retained slice nearest in time.

    Only the last slice's result is kept: callers step through time in
    order, so each slice is derived once per pass while memory stays at one
    field.
    """

    def __init__(self, surface: PriceSurface, derive):
        self._surface = surface
        self._derive = derive
        self._pos = -1
        self._field = None

    def __call__(self, t: float):
        pos = self._surface.nearest_pos(t)
        if pos != self._pos:
            self._field = self._derive(self._surface, self._surface.kept_times[pos])
            self._pos = pos
        return self._field


class WorstCaseControl:
    """Path policy reading the maximizing multiplier off a solved surface.

    ``values(t, x, v)`` snaps ``t`` to the nearest retained slice and
    ``(x, v)`` to the nearest grid node of that slice's control field —
    nearest-node sampling keeps the bang-bang structure intact instead of
    smearing it by interpolation.
    """

    tag = "worst-case field"

    def __init__(self, surface: PriceSurface, params: ModelParams,
                 gamma_tolerance: float | None = None):
        if surface.n_kept < 3 and surface.grid.n_t > 1:
            raise ValueError(
                "worst-case policy needs a surface solved with stored slices"
            )
        self._surface = surface
        self._field_at = _SliceMemo(
            surface,
            lambda s, k: optimal_control_field(s, params, k, gamma_tolerance).q_star,
        )

    def values(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        q_grid = self._field_at(t)
        return q_grid.ravel().take(self._surface.grid._nearest_node(x, v))


def _control_sharing(greeks_at: _SliceMemo, params: ModelParams) -> WorstCaseControl:
    """A :class:`WorstCaseControl` whose field at ``t`` derives from the Greeks
    memo's ``greeks_at(t)``, not through :func:`optimal_control_field`, so a
    caller reading the same Greeks at each step derives them once."""
    policy = WorstCaseControl(greeks_at._surface, params)
    policy._field_at = lambda t: _control_field(
        greeks_at._surface, params, greeks_at(t), None).q_star
    return policy


def _require_dense_slices(surface: PriceSurface, n_steps: int, name: str) -> None:
    """Refuse retained slices coarser in time than ``n_steps`` steps."""
    if surface.n_kept < surface.grid.n_t + 1:
        gaps = np.diff(surface.kept_times) * surface.grid.dt
        if gaps.max() > surface.grid.T / n_steps * (1.0 + 1e-9):
            raise ValueError(
                f"{name} surface slices are coarser in time than the "
                f"simulation's {n_steps} steps (n_t={surface.grid.n_t}, "
                f"{surface.n_kept} kept); re-solve with store_slices=True "
                f"and max_kept_slices >= {n_steps + 1}"
            )
