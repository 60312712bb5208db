"""Monte Carlo simulation of the asset/factor system and closed-form checks.

The asset follows ``dX = r X dt + X q e^V dW1`` and the factor
``dV = delta (a - b e^{alpha V}) dt + sqrt(delta) sigma dW2`` with
``corr(dW1, dW2) = rho``.  ``X`` is discretized in log space
(``d log X = (r - q^2 e^{2V}/2) dt + q e^V dW1``) so paths stay strictly
positive; ``V`` uses plain Euler-Maruyama.  ``delta = 0`` freezes the factor
exactly — no drift or noise is applied at all.

Increments come from :mod:`uvpricer.rng`, so batches are reproducible and
chunk-order independent; fixed-``q`` chunks therefore run in parallel, one
thread per CPU the process may use, with results that do not depend on
the schedule.  Path loops that call back into Python policies or surface
reads instead split their paths into two halves, the second in a forked
child (:func:`_in_halves`), writing per-path results into shared memory.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
import queue
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .model import ModelParams, PiecewiseLinearPayoff
from .rng import _CHUNK_CELLS, _check_seed, chunk_ranges, normal_increments
from .surface import _write_csv

# Fixed-q chunks run on one thread per CPU in the process's affinity mask.
_WORKERS = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class PathBatch:
    """Simulated paths of ``(X, V)`` on a uniform time grid.

    ``x_paths`` and ``v_paths`` have shape ``(n_paths, n_steps + 1)`` with
    column 0 holding the initial state.  ``control_tag`` records which
    volatility-multiplier policy generated the batch.
    """

    x_paths: np.ndarray
    v_paths: np.ndarray
    dt: float
    seed: int
    control_tag: str

    @property
    def n_paths(self) -> int:
        return self.x_paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x_paths.shape[1] - 1

    @property
    def t_nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def to_csv(self, path, max_paths: int | None = None, header_lines=()) -> None:
        """Write paths in long format (``path,step,t,x,v``), optionally truncated."""
        keep = self.n_paths if max_paths is None else min(max_paths, self.n_paths)
        n = self.n_steps + 1
        _write_csv(path, header_lines, ("path", "step", "t", "x", "v"),
                   np.repeat(np.arange(keep), n), np.tile(np.arange(n), keep),
                   np.tile(self.t_nodes, keep), self.x_paths[:keep].ravel(),
                   self.v_paths[:keep].ravel())


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo estimate of a path-functional moment."""

    order: int
    estimate: float
    std_error: float
    n_paths: int
    which: str = "X"
    time_integrated: bool = False


@dataclass(frozen=True)
class CoupledGap:
    """Mean-square distance between moving-factor and frozen-factor paths.

    ``gap_sq`` estimates ``E[(X^moving_T - X^frozen_T)^2]``; the payoff
    fields do the same for ``h`` applied to the terminal values.  Iterating
    the report yields ``(gap_sq, std_error)``.
    """

    gap_sq: float
    std_error: float
    payoff_gap_sq: float
    payoff_std_error: float
    n_paths: int

    def __iter__(self):
        yield self.gap_sq
        yield self.std_error


def _check_run(n_paths: int, n_steps: int, T: float, x0: float, v0: float,
               seed) -> None:
    if n_paths < 1 or n_steps < 1:
        raise ValueError(f"need n_paths >= 1 and n_steps >= 1, got {n_paths}, {n_steps}")
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    if not (np.isfinite(x0) and np.isfinite(v0)):
        raise ValueError(f"initial state must be finite, got x0={x0}, v0={v0}")
    if x0 <= 0.0:
        raise ValueError(
            f"x0 must be positive for the log-space scheme, got {x0}"
        )
    _check_seed(seed)


def _check_fixed_q(params: ModelParams, q: float) -> float:
    q = float(q)
    if not params.sigma_min <= q <= params.sigma_max:
        raise ValueError(
            f"fixed multiplier q={q} outside admissible interval "
            f"[{params.sigma_min}, {params.sigma_max}]"
        )
    return q


def _fork_ok() -> bool:
    """Whether a :class:`_Job` may run in a forked child: ``os.fork``
    exists, the affinity mask holds two CPUs or more, and no other thread
    is alive, as forking a threaded process can deadlock the child."""
    return (hasattr(os, "fork") and _WORKERS >= 2
            and threading.active_count() == 1)


class _Job:
    """``fn(*args)``, started in a forked child when :func:`_fork_ok`.

    ``fn`` writes its results into :func:`_shared` arrays and returns
    nothing.  The child always leaves by ``os._exit``, with status 0 only
    once ``fn`` has returned: it never returns into the caller's stack nor
    flushes the stdio it inherited.  :meth:`wait` reaps the child; when
    there was no child, or its status is not 0, it makes the call
    in-process, so a failure reaches the caller as its own error and
    whatever the child wrote is written again.  Processes, not threads:
    the marches' many small numpy calls hand the GIL back and forth, and
    two solves on two threads ran slower than one after the other.
    """

    def __init__(self, fn, *args):
        self._call = fn, args
        self._pid = None
        if not _fork_ok():
            return
        try:
            pid = os.fork()
        except OSError:
            return
        if pid == 0:
            status = 1
            try:
                fn(*args)
                status = 0
            finally:
                os._exit(status)
        self._pid = pid

    def _reap(self, kill: bool) -> int:
        if kill:
            os.kill(self._pid, signal.SIGKILL)
        status = os.waitpid(self._pid, 0)[1]
        self._pid = None
        return status

    def wait(self) -> None:
        if self._pid is None or self._reap(kill=False) != 0:
            fn, args = self._call
            fn(*args)

    def cancel(self) -> None:
        """Kill and reap the child, if it is still outstanding."""
        if self._pid is not None:
            self._reap(kill=True)


def _shared(shape, dtype=float) -> np.ndarray:
    """A zero-filled array in anonymous shared memory: what a forked
    :class:`_Job` child writes into it, the parent reads."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


# Each forked half derives every slice its path loop reads, so a half of
# fewer paths than this runs faster in one call with the other (the two
# break even near 1,000-2,000 paths in all at 128 steps).
_FORK_MIN_PATHS = 1024


def _halves(n_paths: int) -> list[tuple[int, int]]:
    """The ``(first, count)`` path ranges :func:`_in_halves` runs."""
    h = n_paths // 2
    if h < _FORK_MIN_PATHS or not _fork_ok():
        return [(0, n_paths)]
    return [(0, h), (h, n_paths - h)]


def _in_halves(n_paths: int, work) -> None:
    """``work(first, count)`` over paths ``0 .. n_paths - 1``, on both CPUs.

    When :func:`_fork_ok` and ``h = n_paths // 2`` is at least
    ``_FORK_MIN_PATHS``, ``work(0, h)`` runs here and ``work(h, n_paths
    - h)`` as a :class:`_Job`; otherwise ``work(0, n_paths)`` runs here in
    one call, so each slice a path loop reads is derived once.  ``work``
    writes only its own rows of :func:`_shared` arrays and returns
    nothing: its results are per path, and every reduction over paths
    belongs to the caller, after this returns.  A child that fails is
    redone here, so its error is raised as the caller's; an error in the
    first half kills and reaps the child.
    """
    first_half, *rest = _halves(n_paths)
    if not rest:
        work(*first_half)
        return
    job = _Job(work, *rest[0])
    try:
        work(*first_half)
        job.wait()
    finally:
        job.cancel()


def _chunks(n_paths: int, n_steps: int, parallel: bool) -> list[tuple[int, int]]:
    """``(first, count)`` path ranges of one batch.

    A parallel batch splits into a multiple of ``_WORKERS`` balanced
    chunks near ``_CHUNK_CELLS // 4`` cells each; a sequential one into
    chunks of at most ``_CHUNK_CELLS`` cells.
    """
    if parallel:
        target = max(1, _CHUNK_CELLS // 4 // n_steps)
        n_chunks = min(n_paths, _WORKERS * -(-n_paths // (target * _WORKERS)))
        ends = [n_paths * i // n_chunks for i in range(n_chunks + 1)]
        return [(lo, hi - lo) for lo, hi in zip(ends, ends[1:])]
    return list(chunk_ranges(n_paths, max(1, _CHUNK_CELLS // n_steps)))


def _march_chunks(rho: float, n_paths: int, n_steps: int, dt: float,
                  seed: int, parallel: bool, march, normals=None) -> None:
    """Call ``march(first, count, dw1, dw2)`` once per path chunk.

    ``dw1`` and ``dw2`` are the asset and factor Brownian increments,
    correlated by ``rho``, step-major with shape ``(n_steps, count)`` so
    ``dw1[k]`` is one contiguous row; both are views of a reused
    workspace, valid only during the call.  With ``parallel`` the chunks
    run on a pool of one thread per CPU the process may use (Philox,
    ``ndtri`` and numpy ufuncs release the GIL), which lives for this
    call only; ``march`` must then write only its own path slice.
    Otherwise each of :func:`_in_halves` runs its chunks in path order,
    and ``march`` writes only its own rows of :func:`_shared` arrays.

    ``normals`` maps a chunk's ``(first, count)`` to its standard normals
    drawn ahead (:class:`_DrawAhead`): a :func:`_shared` array of shape
    ``(2, n_steps, count)`` that ``normal_increments(seed, count, n_steps,
    first_path=first, out=...)`` filled.  Such a chunk scales and
    correlates its normals in place instead of drawing into a workspace.
    They are spent once: a half redone after its child failed draws them
    again.
    """
    sq_dt = math.sqrt(dt)
    rho_perp_dt = math.sqrt(max(0.0, 1.0 - rho * rho)) * sq_dt
    normals = normals or {}
    # Whether the chunk starting at each path has spent its normals.
    spent = _shared((n_paths,), bool) if normals else None

    def run_paths(first_path, n):
        chunks = [(first_path + lo, count)
                  for lo, count in _chunks(n, n_steps, parallel)]
        pooled = parallel and _WORKERS > 1 and len(chunks) > 1
        # One step-major workspace per worker, allocated on this thread and
        # handed out through a queue, so pool threads allocate only row-sized
        # temporaries and their arenas do not keep chunk-sized blocks.
        spaces = queue.SimpleQueue()
        widths = [count for first, count in chunks
                  if (first, count) not in normals]
        if widths:
            for _ in range(min(_WORKERS, len(widths)) if pooled else 1):
                spaces.put(np.empty((2, n_steps, max(widths))))

        def run(chunk):
            first, count = chunk
            z = normals.get(chunk)
            if z is None:
                space = spaces.get()
                z, fresh = space[:, :, :count], False
            else:
                space, fresh = None, not spent[first]
                spent[first] = True
            try:
                if not fresh:
                    normal_increments(seed, count, n_steps, first_path=first,
                                      out=z)
                dw1, dw2 = z
                np.multiply(dw1, sq_dt, out=dw1)
                np.multiply(dw2, rho_perp_dt, out=dw2)
                for k in range(n_steps):
                    dw2[k] += rho * dw1[k]
                march(first, count, dw1, dw2)
            finally:
                if space is not None:
                    spaces.put(space)

        if pooled:
            with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
                list(pool.map(run, chunks))
        else:
            for chunk in chunks:
                run(chunk)

    if parallel:
        run_paths(0, n_paths)
    else:
        _in_halves(n_paths, run_paths)


def _draw(seed: int, normals: dict) -> None:
    """Fill each ``(first, count)`` entry of ``normals`` with the standard
    normals of those paths."""
    for (first, count), out in normals.items():
        normal_increments(seed, count, out.shape[1], first_path=first, out=out)


class _DrawAhead:
    """A batch's standard normals, drawn by a :class:`_Job` while the
    caller does other work, such as the solve its paths read.

    Philox gives each ``(seed, path, step)`` its own counter, so the draws
    read nothing the caller computes.  Only a batch within one chunk
    budget (``n_paths * n_steps <= _CHUNK_CELLS``) is drawn ahead, into
    one :func:`_shared` array per path half of :func:`_in_halves`, which
    then holds what that half's workspace would.  Each half's array is a
    mapping of its own, so a process reading its half maps no page of
    the other.  :meth:`ready` reaps the job, redoing a failed draw
    in-process, and returns the ``normals`` of :func:`_march_chunks`:
    empty for a larger batch, which draws as it marches.  Call it before
    the march forks its path halves, so no more than two processes run.
    Leaving the ``with`` block kills and reaps a job not yet reaped.
    """

    def __init__(self, seed: int, n_paths: int, n_steps: int):
        self._normals, self._job = {}, None
        if n_paths * n_steps <= _CHUNK_CELLS:
            self._normals = {(first, count): _shared((2, n_steps, count))
                             for first, count in _halves(n_paths)}
            self._job = _Job(_draw, seed, self._normals)

    def ready(self) -> dict:
        if self._job is not None:
            self._job.wait()
            self._job = None
        return self._normals

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._job is not None:
            self._job.cancel()


def _log_x_step(params: ModelParams, q, ev, dt: float, dw1):
    """Log-space Euler increment of the asset at local volatility ``q ev``."""
    return (params.r - 0.5 * q * q * ev * ev) * dt + q * ev * dw1


def _factor_step(params: ModelParams, v: np.ndarray, dt: float, dw2) -> np.ndarray:
    """Euler step of the factor; ``delta = 0`` leaves it frozen."""
    if params.delta == 0.0:
        return v
    v = v + params.delta * (params.a - params.b * np.exp(params.alpha * v)) * dt
    v += math.sqrt(params.delta) * params.sigma * dw2
    return v


def _control(params: ModelParams, q_policy, x0: float, v0: float,
             n_paths: int, n_steps: int, T: float,
             seed: int) -> tuple[object, str]:
    """``(q, tag)`` of a checked path run: ``q`` is a real ``q_policy`` as
    a float, or else a policy object exposing ``values(t, x, v)``."""
    _check_run(n_paths, n_steps, T, x0, v0, seed)
    if isinstance(q_policy, (numbers.Real, np.ndarray)) and np.ndim(q_policy) == 0:
        q = _check_fixed_q(params, q_policy)
        return q, f"fixed q={q}"
    if not hasattr(q_policy, "values"):
        raise TypeError("q_policy must be a number or expose values(t, x, v); "
                        f"got {type(q_policy).__name__}")
    return q_policy, str(getattr(q_policy, "tag", q_policy.__class__.__name__))


def _march_paths(params: ModelParams, x0: float, v0: float, q, n_paths: int,
                 n_steps: int, T: float, seed: int, consumer,
                 normals=None) -> None:
    """Stream the Euler march of ``(X, V)`` under ``q`` to ``consumer``.

    A fixed multiplier ``q`` (a float) runs its chunks on the thread pool;
    a policy object's paths split into :func:`_in_halves` of sequential
    chunks.  The chunk of paths ``rows`` (a slice) makes ``visit =
    consumer(rows, dw)`` and calls ``visit(k, x, v)`` with the stored state
    at each step ``k = 0 .. n_steps``: ``x0``, then ``exp(log_x)``.  Rows
    ``0 .. k - 1`` of its increments ``dw`` are spent, free to overwrite.
    ``normals`` are drawn ahead, as :func:`_march_chunks` takes them.
    """
    dt = T / n_steps
    fixed = isinstance(q, float)

    def march(lo, m, dw1, dw2):
        visit = consumer(slice(lo, lo + m), (dw1, dw2))
        log_x = np.full(m, math.log(x0))
        x = np.full(m, float(x0))
        v = np.full(m, float(v0))
        for k in range(n_steps):
            visit(k, x, v)
            # The policy reads the stored row, and exp(log x0), which may
            # differ from x0 in its last bit, at the first step.
            qk = q if fixed else q.values(k * dt, x if k else np.exp(log_x), v)
            log_x += _log_x_step(params, qk, np.exp(v), dt, dw1[k])
            v = _factor_step(params, v, dt, dw2[k])
            x = np.exp(log_x)
        visit(n_steps, x, v)

    _march_chunks(params.rho, n_paths, n_steps, dt, seed, fixed, march,
                  normals)


def simulate_paths(
    params: ModelParams,
    x0: float,
    v0: float,
    q_policy,
    n_paths: int,
    n_steps: int,
    T: float,
    seed: int,
) -> PathBatch:
    """Euler-Maruyama batch of ``(X, V)`` paths up to horizon ``T``.

    ``q_policy`` is either a real multiplier inside the admissible
    interval, or any object with ``values(t, x, v) -> array`` (and an
    optional ``tag``) evaluated at the start of each step.  A policy
    object is called on the calling thread; on two CPUs or more the
    second half of the paths calls a copy of it in a forked child
    (:func:`_in_halves`), so its own state sees only the first half.
    """
    return _simulate(params, x0, v0, q_policy, n_paths, n_steps, T, seed,
                     n_paths)[0]


def _simulate(params, x0, v0, q_policy, n_paths, n_steps, T, seed, keep):
    """``(batch, x_T, v_T)``: the first ``keep`` paths of
    :func:`simulate_paths`'s batch, and the terminal asset and factor
    values of every path.  The other paths are not stored whole."""
    q, tag = _control(params, q_policy, x0, v0, n_paths, n_steps, T, seed)
    if keep < 0:
        raise ValueError(f"cannot keep {keep} paths")
    keep = min(keep, n_paths)
    # A forked half writes its rows of shared memory.
    alloc = np.empty if isinstance(q, float) else _shared
    x_out = alloc((keep, n_steps + 1))
    v_out = alloc((keep, n_steps + 1))
    x_out[:, 0], v_out[:, 0] = x0, v0
    if keep == n_paths:
        x_end, v_end = x_out[:, -1], v_out[:, -1]
    else:
        x_end, v_end = alloc((n_paths,)), alloc((n_paths,))

    def consumer(rows, dw):
        # Step k > 0 of a kept path goes into the spent increment row
        # k - 1, and the chunk's kept paths are copied out path-major after
        # its last step.
        head = slice(rows.start, max(rows.start, min(rows.stop, keep)))
        n = head.stop - head.start

        def visit(k, x, v):
            if k and n:
                dw[0][k - 1, :n], dw[1][k - 1, :n] = x[:n], v[:n]
            if k == n_steps:
                x_out[head, 1:], v_out[head, 1:] = dw[0][:, :n].T, dw[1][:, :n].T
                x_end[rows], v_end[rows] = x, v
        return visit

    _march_paths(params, x0, v0, q, n_paths, n_steps, T, seed, consumer)
    x_out.flags.writeable = False
    v_out.flags.writeable = False
    batch = PathBatch(x_paths=x_out, v_paths=v_out, dt=T / n_steps, seed=seed,
                      control_tag=tag)
    return batch, x_end, v_end


def _mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    mean = float(samples.mean())
    if n < 2:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / math.sqrt(n))


_MOMENT_BLOCK_ROWS = 512


def estimate_moment(
    batch: PathBatch, which: str = "X", k: int = 1, time_integrated: bool = False
) -> MomentReport:
    """Estimate ``E[|Z_T|^k]`` (or ``E[int_0^T |Z_s|^k ds]``) for ``Z``
    in ``{X, V}``."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    key = which.upper()
    if key == "X":
        paths = batch.x_paths
    elif key == "V":
        paths = batch.v_paths
    else:
        raise ValueError(f"which must be 'X' or 'V', got {which!r}")
    if time_integrated:
        # Each path's integral reads only its own row, so blocks of rows
        # give the same bits without batch-sized temporaries.
        samples = np.empty(batch.n_paths)
        for lo in range(0, batch.n_paths, _MOMENT_BLOCK_ROWS):
            rows = slice(lo, lo + _MOMENT_BLOCK_ROWS)
            samples[rows] = np.trapezoid(np.abs(paths[rows]) ** k,
                                         dx=batch.dt, axis=1)
    else:
        samples = np.abs(paths[:, -1]) ** k
    estimate, std_error = _mean_and_se(samples)
    return MomentReport(
        order=k,
        estimate=estimate,
        std_error=std_error,
        n_paths=batch.n_paths,
        which=key,
        time_integrated=time_integrated,
    )


def coupled_payoff_gap(
    params: ModelParams,
    payoff: PiecewiseLinearPayoff,
    x0: float,
    v0: float,
    q: float,
    n_paths: int,
    n_steps: int,
    T: float,
    seed: int,
) -> CoupledGap:
    """Mean-square terminal gap between the moving-factor asset and its
    frozen-factor twin driven by the same Brownian increments.

    Both assets start at ``x0`` with multiplier ``q``; the twin keeps
    ``V = v0`` for ever.  The report also carries the payoff-level gap
    ``E[(h(X^moving_T) - h(X^frozen_T))^2]``.
    """
    _check_run(n_paths, n_steps, T, x0, v0, seed)
    q = _check_fixed_q(params, q)

    dt = T / n_steps
    ev0 = math.exp(v0)
    gap_samples = np.empty(n_paths)
    pay_samples = np.empty(n_paths)

    def consumer(rows, dw):
        # The twin steps on the unspent increment row k of the march.
        log_x_frz = np.full(rows.stop - rows.start, math.log(x0))

        def visit(k, x, v):
            if k < n_steps:
                np.add(log_x_frz, _log_x_step(params, q, ev0, dt, dw[0][k]),
                       out=log_x_frz)
                return
            x_frz = np.exp(log_x_frz)
            gap_samples[rows] = (x - x_frz) ** 2
            pay_samples[rows] = (payoff(x) - payoff(x_frz)) ** 2
        return visit

    _march_paths(params, x0, v0, q, n_paths, n_steps, T, seed, consumer)
    gap, gap_se = _mean_and_se(gap_samples)
    pay, pay_se = _mean_and_se(pay_samples)
    return CoupledGap(
        gap_sq=gap,
        std_error=gap_se,
        payoff_gap_sq=pay,
        payoff_std_error=pay_se,
        n_paths=n_paths,
    )


_POLE_TOL = 1e-12
# Below this value of |argument| the 0/0 ratios are evaluated by series.
_SERIES_TOL = 1e-6


def mgf_components(params: ModelParams, eta: float, t: float) -> tuple[float, float]:
    """The pair ``(Psi, Xi)`` of the closed-form integrated-factor MGF.

    Both carry the exponent ``2/sigma^2``; the branch follows the sign of
    ``delta^2 - 2 eta delta sigma^2`` (hyperbolic vs trigonometric).
    Raises :class:`PoleError` when the shared denominator vanishes and
    ``ValueError`` when a fractional power of a negative base appears.
    """
    if not (math.isfinite(eta) and math.isfinite(t)):
        raise ValueError(f"eta and t must be finite, got eta={eta}, t={t}")
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    delta, sigma = params.delta, params.sigma
    power = 2.0 / sigma**2
    half = 0.5 * t
    disc = delta**2 - 2.0 * eta * delta * sigma**2
    if disc >= 0.0:
        bb = math.sqrt(disc)
        if bb * half < _SERIES_TOL:
            # Removable 0/0: expand sinh/cosh to first order in (bb*t/2).
            psi_inner = math.exp(delta * half) / (1.0 + delta * half)
            xi_inner = eta * t / (1.0 + delta * half)
        else:
            den = bb * math.cosh(bb * half) + delta * math.sinh(bb * half)
            if abs(den) < _POLE_TOL:
                raise PoleError(
                    f"closed-form denominator vanished (eta={eta}, t={t})"
                )
            psi_inner = bb * math.exp(delta * half) / den
            xi_inner = 2.0 * eta * math.sinh(bb * half) / den
    else:
        theta = math.sqrt(-disc)
        if theta * half < _SERIES_TOL:
            psi_inner = math.exp(delta * half) / (1.0 + delta * half)
            xi_inner = eta * t / (1.0 + delta * half)
        else:
            den = theta * math.cos(theta * half) + delta * math.sin(theta * half)
            if abs(den) < _POLE_TOL:
                raise PoleError(
                    f"closed-form denominator vanished on the trigonometric "
                    f"branch (eta={eta}, t={t})"
                )
            psi_inner = theta * math.exp(delta * half) / den
            xi_inner = 2.0 * eta * math.sin(theta * half) / den
    with np.errstate(invalid="ignore"):
        psi = float(np.power(psi_inner, power))
        xi = float(np.power(xi_inner, power))
    if math.isnan(psi) or math.isnan(xi):
        raise ValueError(
            "fractional power of a negative base: the closed form is not "
            f"real-valued at eta={eta}, t={t} (sigma={sigma})"
        )
    return psi, xi


def mgf_closed_form(params: ModelParams, eta: float, t: float, v: float) -> float:
    """Closed-form MGF ``Psi(eta, t) * exp(-v * Xi(eta, t))`` of the
    integrated factor."""
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    psi, xi = mgf_components(params, eta, t)
    return psi * math.exp(-v * xi)
