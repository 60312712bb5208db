#!/usr/bin/env python3
"""Run alternating parent/change pairs of ``perfbench/run.py`` and summarize.

Usage::

    python scripts/bench_pairs.py PARENT CHANGE OUT.json --section final \\
        --workloads pde_sweep mc_paths surface_mc --pairs 10 --seed 1901 \\
        --trace 0 --note "..." --set parent_commit=abc1234

``PARENT`` and ``CHANGE`` are two checkouts of the repository; each side's
runs start in its own checkout and last the ``run_seconds`` of its
``BENCHMARK.json``, which must agree between the two.  Pair ``i`` of workload number ``w`` (in
the order given) runs with seed ``SEED + 20 w + i`` on both sides; the
parent runs first in the odd-numbered pairs (1, 3, ...) and the change
in the even-numbered ones.

A pair entry keeps the seed, the side that ran first and, for each side,
``{"result": ..., "op_s": ...}``: the result line (the last line
``perfbench/run.py`` prints) and each operation's median time over the
run's rounds, from ``op_times_s`` in the detail line before it; with
``--trace 1`` the side also keeps that ``"detail"`` line.  The summary
treats each operation's median time as a reading named
``op_s.<operation>`` beside the metrics.  Each reading's summary gives
both sides' quartiles (``statistics.quantiles``, exclusive method),
minimum and maximum, the number of pairs, ``change_lower`` (pairs where
the change read lower) and ``ties``.

The pairs go under ``OUT.json``'s ``SECTION`` key as ``{"note": NOTE,
"workloads": {workload: {"summary": ..., "pairs": [...]}}}``.  Other
sections of an existing file are kept; ``--set KEY=VALUE`` sets a top-level
string such as ``host``, ``parent_commit`` or ``change``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SEED_STRIDE = 20


def result_lines(stdout: str) -> tuple[dict, dict]:
    """The detail line and the result line of one run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Quartiles, minimum and maximum of one side's readings."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"q1": q1, "median": median, "q3": q3,
            "min": min(values), "max": max(values)}


def op_medians(detail: dict) -> dict:
    """Each operation's median time over the rounds of one run."""
    return {op: statistics.median(times)
            for op, times in detail["op_times_s"].items()}


def _readings(entry: dict) -> dict:
    """One side's metric values and ``op_s.<operation>`` median times; an
    entry that is a bare result line has no operation times."""
    metrics = entry.get("result", entry)["metrics"]
    values = {name: metric["value"] for name, metric in metrics.items()}
    values.update({f"op_s.{op}": t for op, t in entry.get("op_s", {}).items()})
    return values


def summarize(pairs: list[dict]) -> dict:
    """Per reading: both sides' spread, ``change_lower`` and ``ties``."""
    summary = {}
    for name in _readings(pairs[0]["parent"]):
        readings = [[_readings(pair[side])[name] for side in SIDES]
                    for pair in pairs]
        parent, change = (list(side) for side in zip(*readings))
        summary[name] = {
            "parent": spread(parent), "change": spread(change),
            "pairs": len(pairs),
            "change_lower": sum(c < p for p, c in readings),
            "ties": sum(c == p for p, c in readings),
        }
    return summary


def run_seconds(checkouts: dict) -> float:
    """The ``run_seconds`` both checkouts' ``BENCHMARK.json`` declare."""
    seconds = {side: json.loads((checkout / "BENCHMARK.json").read_text())
               ["run_seconds"] for side, checkout in checkouts.items()}
    if len(set(seconds.values())) != 1:
        raise ValueError(f"run_seconds differ between the checkouts: {seconds}")
    return seconds["change"]


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    args = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True,
                          check=True)
    detail, result = result_lines(done.stdout)
    side = {"result": result, "op_s": op_medians(detail)}
    if trace:
        side["detail"] = detail
    return side


def run_pairs(checkouts: dict, workload: str, seed: int, n_pairs: int,
              seconds: float, trace: int) -> list[dict]:
    pairs = []
    for i in range(n_pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed + i, "first": order[0], "pair": i + 1}
        for side in order:
            pair[side] = run_side(checkouts[side], workload, seed + i,
                                  seconds, trace)
        pairs.append(pair)
        print(f"{workload} pair {i + 1}/{n_pairs} done", file=sys.stderr)
    return pairs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--section", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--note", default="")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    seconds = run_seconds(checkouts)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("benchmark", "python3 perfbench/run.py --workload W "
                   f"--seed N --seconds {seconds:g} --trace {args.trace}")
    doc.setdefault("method", "Alternating parent/change pairs made by "
                   "scripts/bench_pairs.py; see its docstring.")
    for item in args.set:
        key, _, value = item.partition("=")
        doc[key] = value
    workloads = {}
    doc[args.section] = {"note": args.note, "workloads": workloads}
    for w, workload in enumerate(args.workloads):
        pairs = run_pairs(checkouts, workload, args.seed + SEED_STRIDE * w,
                          args.pairs, seconds, args.trace)
        workloads[workload] = {"summary": summarize(pairs), "pairs": pairs}
        # Written after each workload, so a stopped run keeps what it has.
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
