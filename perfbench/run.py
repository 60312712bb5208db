#!/usr/bin/env python3
"""Benchmark of uvpricer: one workload, closed loop, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pde_sweep --seed 1 --seconds 25 --trace 0

One client process issues the workload's operations back to back (a
closed loop) and repeats the round until ``--seconds`` have passed.  Every
operation's output is checked; a nonzero exit, a raised error or a failed
check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh-process
import of uvpricer plus parsing the workload's configs, median of several
processes), ``wall_s`` (median time of one round), ``op_s_p50`` (median
time of one operation), ``peak_rss_mb`` (over the first round: later
rounds add allocator fragmentation that differs from run to run) and
``result_err`` (the accuracy
figure of the workload's answer; see README.md).  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, the span
coverage and the tracing overhead instead.  ``--smoke`` runs toy sizes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the accuracy numbers and the per-operation
times.
"""

import os

# Pin native thread pools before numpy loads.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from tracing import SOLVE_KINDS, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckError, config_paths  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s",
              "peak_rss_mb": "MB", "result_err": "price"}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import uvpricer
from uvpricer.config import RunConfig, config_hash, load_config
for path in sys.argv[2:]:
    doc = load_config(path)
    config_hash(doc)
    RunConfig.from_dict(doc)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pde_sweep", "mc_paths", "surface_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke}


def measure_setup(configs, repeats: int, warmup: int) -> list[float]:
    """Wall time of fresh processes that import uvpricer and parse configs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, configs)]
    times = []
    for i in range(warmup + repeats):
        start = perf_counter()
        subprocess.run(cmd, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        if i >= warmup:
            times.append(perf_counter() - start)
    return times


class Round:
    """Timings, failures and recorded numbers of one pass over the ops."""

    def __init__(self):
        self.by_op = {}
        self.failed = 0
        self.records = {}

    @property
    def times(self) -> list[float]:
        return list(self.by_op.values())

    @property
    def wall_s(self) -> float:
        return sum(self.by_op.values())


def run_op(op, round_, sink, tracer=None):
    if op.out_dir is not None:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    if tracer is not None:
        tracer.begin_op()
    sink.seek(0)
    sink.truncate()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            value = op.call()
        ok = True
    except Exception:
        ok = False
        print(f"[{op.label}] raised:\n{traceback.format_exc()}", file=sys.stderr)
    round_.by_op[op.label] = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
        if op.out_dir is not None and op.out_dir.is_dir():
            tracer.counts["cli.artifact_bytes"] += sum(
                p.stat().st_size for p in op.out_dir.iterdir())
    if ok:
        try:
            round_.records.update(op.check(value))
        except (CheckError, ArithmeticError, LookupError, OSError, TypeError,
                ValueError) as exc:
            ok = False
            print(f"[{op.label}] check failed: {exc!r}", file=sys.stderr)
    if not ok:
        round_.failed += 1
    if op.out_dir is not None:
        shutil.rmtree(op.out_dir, ignore_errors=True)


def run_round(ops, sink, tracer=None) -> Round:
    round_ = Round()
    for op in ops:
        run_op(op, round_, sink, tracer)
    return round_


def median_records(rounds) -> dict:
    values = defaultdict(list)
    for r in rounds:
        for key, value in r.records.items():
            if isinstance(value, (int, float)) and value == value:
                values[key].append(value)
    return {key: statistics.median(v) for key, v in sorted(values.items())}


def peak_rss_now_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds, setup_times, peak_rss_mb) -> dict:
    records = median_records(rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "op_s_p50": statistics.median(t for r in rounds for t in r.times),
        "peak_rss_mb": peak_rss_mb,
        "result_err": records.get("result_err", 0.0),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracers, traced, plain, n_ops) -> tuple[dict, dict]:
    """Per-layer metrics, per traced round, and the round's work counts."""
    n = len(tracers)
    c = tracers[0].counts
    s = defaultdict(float)
    for tracer in tracers:
        for name, value in tracer.self_s.items():
            s[name] += value / n
    m = {}
    for kind in SOLVE_KINDS.values():
        p = f"hjb.{kind}"
        m[f"{p}.calls"] = (c[f"{p}.calls"], "count")
        m[f"{p}.self_s"] = (s[p], "s")
        m[f"{p}.n_t"] = (c[f"{p}.n_t"], "count")
        m[f"{p}.node_steps"] = (c[f"{p}.node_steps"], "count")
        m[f"{p}.ns_per_node_step"] = (_ratio(1e9 * s[p], c[f"{p}.node_steps"]), "ns")
    m["hjb.kept_slice_mb"] = (c["hjb.kept_slice_bytes"] / 1e6, "MB")
    m["hjb.solves_per_op"] = (c["hjb.solves"] / n_ops, "count")
    m["hjb.unique_solve_ratio"] = (_ratio(c["hjb.unique_solves"], c["hjb.solves"]), "ratio")
    m["rng.calls"] = (c["rng.calls"], "count")
    m["rng.self_s"] = (s["rng"], "s")
    m["rng.normals"] = (c["rng.normals"], "count")
    m["rng.raw_words"] = (c["rng.raw_words"], "count")
    m["rng.ns_per_normal"] = (_ratio(1e9 * s["rng"], c["rng.normals"]), "ns")
    m["rng.used_word_ratio"] = (_ratio(c["rng.normals"], c["rng.raw_words"]), "ratio")
    m["sde.simulate.self_s"] = (s["sde.simulate"], "s")
    m["sde.path_steps"] = (c["sde.path_steps"], "count")
    m["sde.ns_per_path_step"] = (_ratio(1e9 * s["sde.simulate"], c["sde.path_steps"]), "ns")
    m["sde.gap.self_s"] = (s["sde.gap"], "s")
    m["sde.moment.self_s"] = (s["sde.moment"], "s")
    for part in ("greeks", "control_field", "policy", "value_at"):
        m[f"surface.{part}.calls"] = (c[f"surface.{part}.calls"], "count")
        m[f"surface.{part}.self_s"] = (s[f"surface.{part}"], "s")
    m["surface.greeks.unique_ratio"] = (
        _ratio(c["surface.greeks.unique"], c["surface.greeks.calls"]), "ratio")
    m["bsde.residual.self_s"] = (s["bsde.residual"], "s")
    m["bsde.path_steps"] = (c["bsde.path_steps"], "count")
    m["bsde.ns_per_path_step"] = (_ratio(1e9 * s["bsde.residual"], c["bsde.path_steps"]), "ns")
    m["bsde.discard_fraction"] = (_ratio(c["bsde.paths_discarded"], c["bsde.paths"]), "ratio")
    m["convergence.sweep.self_s"] = (s["convergence.sweep"], "s")
    m["convergence.corrector_sweep.self_s"] = (s["convergence.corrector_sweep"], "s")
    m["convergence.fk.self_s"] = (s["convergence.fk"], "s")
    m["convergence.solves_per_sweep"] = (
        _ratio(c["convergence.sweep_solves"], c["convergence.sweeps"]), "count")
    m["cli.write_s"] = (s["cli.write"], "s")
    m["cli.artifact_bytes"] = (c["cli.artifact_bytes"], "bytes")
    m["config.parse_s"] = (s["config.parse"], "s")
    covered = sum(t.covered_s for t in tracers)
    m["trace.coverage"] = (_ratio(covered, sum(r.wall_s for r in traced)), "ratio")
    m["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                             - statistics.median(r.wall_s for r in plain), "s")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in m.items()}
    return metrics, dict(sorted(c.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uvpricer" / "__init__.py").is_file():
        print(f"perfbench: no uvpricer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uvpricer
    import uvpricer.cli  # noqa: F401

    size = SIZES["smoke" if args.smoke else "full"]
    sink = io.StringIO()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        ops = WORKLOADS[args.workload](uvpricer, work, args.seed, size)
        if not args.trace:
            setup_times = measure_setup(config_paths(work),
                                        repeats=2 if args.smoke else 3,
                                        warmup=0 if args.smoke else 1)
        plain, traced, tracers = [], [], []
        deadline = perf_counter() + args.seconds
        if args.trace:
            while not traced or perf_counter() < deadline:
                plain.append(run_round(ops, sink))
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(run_round(ops, sink, tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
        else:
            while not plain or perf_counter() < deadline:
                plain.append(run_round(ops, sink))
                if len(plain) == 1:
                    peak_rss_mb = peak_rss_now_mb()

    rounds = plain + traced
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0
    if args.trace:
        metrics, counts = per_layer(tracers, traced, plain, len(ops))
        for tracer in tracers[1:]:
            if dict(sorted(tracer.counts.items())) != counts:
                correct = False
                print("perfbench: work counts differ between traced rounds",
                      file=sys.stderr)
        extra = {"work_counts": counts, "untraced_targets": tracers[0].missing}
    else:
        metrics = end_to_end(plain, setup_times, peak_rss_mb)
        extra = {"setup_times_s": setup_times}

    detail = {
        "environment": environment(args),
        "rounds": {"plain": len(plain), "traced": len(traced)},
        "fail_rate": _ratio(failed, attempted),
        "op_times_s": {op.label: [r.by_op[op.label] for r in rounds]
                       for op in ops},
        "accuracy": median_records(rounds),
        **extra,
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_rate = {failed} of {attempted} operations")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
