"""Span tracing of uvpricer's layers from outside the package.

A :class:`Tracer` wraps the public functions of each module of
``uvpricer`` while it is installed.  ``cli``, ``convergence``, ``bsde`` and
``sde`` bind solvers, the RNG, ``greeks`` and ``simulate_paths`` with
``from .x import y``, so every module namespace that holds a traced
function gets the wrapper, not only the defining module.

Each wrapped call is a span.  A layer's self time is its spans' duration
minus the time of the spans opened inside them, so ``sde.simulate``
excludes the RNG and the policy reads it calls.  Work counts (node-steps,
path-steps, normals, raw Philox words, kept-slice bytes, solves) are
computed from the arguments and return values at the wrapped boundary;
for fixed inputs they repeat exactly.  A target that the package no
longer has is skipped and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

SOLVE_KINDS = {"solve_hjb_2d": "full", "solve_bsb_1d": "bsb",
               "solve_corrector": "corrector"}
SWEEP_SPANS = ("convergence.sweep", "convergence.corrector_sweep")
# Methods that write an artifact file; each counts toward cli.write_s.
WRITER_METHODS = (
    ("surface", "PriceSurface", "to_csv"),
    ("sde", "PathBatch", "to_csv"),
    ("convergence", "ConvergenceReport", "to_csv"),
    ("convergence", "ConvergenceReport", "to_json"),
    ("convergence", "ConvergenceReport", "to_plot_script"),
    ("convergence", "CorrectorReport", "to_csv"),
    ("convergence", "CorrectorReport", "to_json"),
    ("bsde", "BsdeResidualReport", "to_json"),
)


class _Serials:
    """Stable small integers for live objects, safe against id() reuse."""

    def __init__(self):
        self._by_id = {}
        self._next = 0

    def of(self, obj) -> int:
        entry = self._by_id.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        self._next += 1
        self._by_id[id(obj)] = (weakref.ref(obj), self._next)
        return self._next


class _CountingBitGenerator:
    """Delegates to a numpy bit generator and counts the raw words drawn."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def random_raw(self, size=None, output=True):
        out = self._inner.random_raw(size, output)
        if out is not None:
            self._tracer.counts["rng.raw_words"] += int(getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Per-layer self time, call counts and work counts of uvpricer calls."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._stack = []          # open spans: [name, time spent in children]
        self._top_s = 0.0         # time covered by outermost spans
        self._patches = []        # (owner, attribute, original value)
        self._serials = _Serials()
        self._solve_keys = {}     # surface serial -> key of the solve that made it
        self._op_solves = []
        self._op_greeks = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                inside = [span[0] for span in stack]
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, children = stack.pop()
                tracer.self_s[name] += elapsed - children
                tracer.counts[f"{name}.calls"] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer._top_s += elapsed
            if on_return is not None:
                on_return(bound.arguments, result, inside)
            return result

        return wrapper

    # -- work counts at the boundaries ---------------------------------------

    def _solve_key(self, kind, args):
        key = [kind]
        for arg_name, value in args.items():
            if arg_name == "p0":
                value = self._solve_keys.get(self._serials.of(value))
            key.append((arg_name, repr(value)))
        return tuple(key)

    def _on_solve(self, kind):
        def record(args, surface, inside):
            grid = args["grid"]
            width = 1 if args.get("v") is not None else grid.n_v
            prefix = f"hjb.{kind}"
            self.counts[f"{prefix}.n_t"] += grid.n_t
            self.counts[f"{prefix}.node_steps"] += grid.n_t * (grid.n_x + 2) * width
            self.counts["hjb.kept_slice_bytes"] += surface.values.nbytes
            self.counts["hjb.solves"] += 1
            key = self._solve_key(kind, args)
            self._solve_keys[self._serials.of(surface)] = key
            self._op_solves.append(key)
            if any(span in SWEEP_SPANS for span in inside):
                self.counts["convergence.sweep_solves"] += 1
        return record

    def _on_normals(self, args, result, inside):
        self.counts["rng.normals"] += int(result.size)

    def _on_simulate(self, args, batch, inside):
        self.counts["sde.path_steps"] += args["n_paths"] * args["n_steps"]

    def _on_residual(self, args, report, inside):
        self.counts["bsde.path_steps"] += args["n_paths"] * args["n_steps"]
        self.counts["bsde.paths"] += report.n_paths
        self.counts["bsde.paths_discarded"] += report.n_paths_discarded

    def _on_greeks(self, args, result, inside):
        self._op_greeks.append(
            (self._serials.of(args["surface"]), int(args["time_index"]))
        )

    def _on_sweep(self, args, result, inside):
        self.counts["convergence.sweeps"] += 1

    def begin_op(self) -> None:
        """Start the per-operation scopes of the unique-solve and Greek ratios."""
        self._op_solves = []
        self._op_greeks = []

    def end_op(self) -> None:
        """Fold the operation's distinct solves and Greek reads into counts."""
        self.counts["hjb.unique_solves"] += len(set(self._op_solves))
        self.counts["surface.greeks.unique"] += len(set(self._op_greeks))

    @property
    def covered_s(self) -> float:
        """Total time inside outermost spans since the tracer was made."""
        return self._top_s

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_function(self, module_name, attr, span, on_return=None):
        module = sys.modules.get(f"uvpricer.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self._wrap(span, original, on_return)
        for name, mod in list(sys.modules.items()):
            if name != "uvpricer" and not name.startswith("uvpricer."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch_method(self, module_name, cls_name, attr, span, on_return=None):
        cls = getattr(sys.modules.get(f"uvpricer.{module_name}"), cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(span, raw.__func__, on_return)))
        else:
            self._patch(cls, attr, self._wrap(span, raw, on_return))

    def _patch_bit_generator(self):
        module = sys.modules["uvpricer.rng"]
        original = getattr(module, "Philox", None)
        if original is None:
            self.missing.append("rng.Philox")
            return

        def counting(*args, **kwargs):
            return _CountingBitGenerator(original(*args, **kwargs), self)

        self._patch(module, "Philox", counting)

    def install(self) -> None:
        """Wrap every traced function in every uvpricer module that binds it."""
        import uvpricer  # noqa: F401  (loads every submodule)

        self.missing = []
        for attr, kind in SOLVE_KINDS.items():
            self._patch_function("hjb", attr, f"hjb.{kind}", self._on_solve(kind))
        self._patch_function("rng", "normal_increments", "rng", self._on_normals)
        self._patch_bit_generator()
        self._patch_function("sde", "simulate_paths", "sde.simulate",
                             self._on_simulate)
        self._patch_function("sde", "coupled_payoff_gap", "sde.gap")
        self._patch_function("sde", "estimate_moment", "sde.moment")
        self._patch_function("surface", "greeks", "surface.greeks",
                             self._on_greeks)
        self._patch_function("surface", "optimal_control_field",
                             "surface.control_field")
        self._patch_method("surface", "WorstCaseControl", "values",
                           "surface.policy")
        self._patch_method("surface", "PriceSurface", "value_at",
                           "surface.value_at")
        self._patch_function("bsde", "simulate_2bsde_residual", "bsde.residual",
                             self._on_residual)
        self._patch_function("convergence", "run_delta_sweep",
                             "convergence.sweep", self._on_sweep)
        self._patch_function("convergence", "corrector_sweep",
                             "convergence.corrector_sweep", self._on_sweep)
        self._patch_function("convergence", "feynman_kac_terms",
                             "convergence.fk")
        for module_name, cls_name, attr in WRITER_METHODS:
            self._patch_method(module_name, cls_name, attr, "cli.write")
        self._patch_function("cli", "_write_summary", "cli.write")
        for attr in ("load_config", "apply_override", "config_hash"):
            self._patch_function("config", attr, "config.parse")
        self._patch_method("config", "RunConfig", "from_dict", "config.parse")

    def uninstall(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
