"""Run the README's eleven *Refactor check* commands and hash their output.

Usage, from the root of a checkout::

    python scripts/refactor_check.py OUT > hashes.txt

Each command runs ``python -m uvpricer`` on ``src/`` of the current
directory and writes into a subdirectory of ``OUT``, which must not hold
files yet.  The script then imports ``uvpricer`` from the same ``src/`` and
writes the JSON of a few library reports that no command writes into
``OUT/library``: the coupled payoff gap at delta 0 and 0.5, the martingale
check under a fixed multiplier and under the worst-case control, the
Feynman-Kac terms, and the Greeks at every node of the first, middle and
last kept slice of the three surfaces those reports read.  They use only
the public API, so the script runs against an older ``src/`` too.  It
prints one ``sha256  ./path`` line per file written, sorted by path, as
``find . -type f | sort | xargs sha256sum`` run in ``OUT`` prints them.
``--out`` enters every artifact's config hash, so compare two checkouts
by running this script in each with the same relative ``OUT`` and
diffing the two listings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

RUNS = (
    [("quickstart", c, []) for c in ("price", "sweep", "simulate")]
    + [("section4", c, []) for c in ("price", "sweep", "corrector")]
    + [("check2bsde", "check2bsde", []),
       ("check2bsde", "check2bsde", ["--set", "check2bsde.surface=limit_p0"]),
       ("section4", "price", ["--set", "price.cell_average_terminal=true"]),
       ("quickstart", "sweep", ["--set", "sweep.cell_average_terminal=true"]),
       ("section4", "corrector", ["--set", "corrector.noise_floor=null"])]
)

# The directory suffix of each run with a ``--set``, after its config name.
SET_DIRS = {"check2bsde.surface=limit_p0": "limit",
            "price.cell_average_terminal=true": "price_cell_average",
            "sweep.cell_average_terminal=true": "sweep_cell_average",
            "corrector.noise_floor=null": "corrector_measured_floor"}


def run_dir(config: str, command: str, extra: list[str]) -> str:
    return f"{config}_{SET_DIRS[extra[1]]}" if extra else f"{config}_{command}"


def write_library(out: Path) -> None:
    """Write each library report as the ``json.dumps`` of its fields."""
    sys.path.insert(0, str(Path("src").resolve()))
    import uvpricer as uv

    params = uv.ModelParams(r=0.0, a=0.6, b=0.5, alpha=2.0, sigma=0.5, rho=0.5,
                            sigma_min=0.1, sigma_max=0.2, delta=0.5)
    payoff = uv.PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)
    trial = uv.GridSpec(x_min=0.0, x_max=160.0, n_x=79, v_min=-1.5,
                        v_max=-0.5, n_v=7, T=0.15, n_t=1)
    grid = dataclasses.replace(trial, n_t=uv.min_time_steps(params, trial))
    surface = uv.solve_hjb_2d(params, payoff, grid, store_slices=True)
    p0 = uv.solve_bsb_1d(params, payoff, grid, store_slices=True,
                         max_kept_slices=10**9)
    p1 = uv.solve_corrector(params, payoff, grid, p0, store_slices=True,
                            max_kept_slices=10**9)
    # 4,096 paths split into two halves of the size that forks.
    reports = {
        "gap_delta0": uv.coupled_payoff_gap(
            params.with_delta(0.0), payoff, 100.0, -1.0, 0.15, 20_000, 50,
            0.15, 7),
        "gap_delta0.5": uv.coupled_payoff_gap(
            params, payoff, 100.0, -1.0, 0.15, 20_000, 50, 0.15, 7),
        "martingale_fixed_q": uv.martingale_check(
            surface, params, 0.15, 100.0, -1.0, 4096, 20, 11),
        "martingale_worst_case": uv.martingale_check(
            surface, params, uv.WorstCaseControl(surface, params), 100.0,
            -1.0, 4096, 20, 11),
        "feynman_kac": uv.feynman_kac_terms(
            params, payoff, grid, p0, p1, 0.5, 4096, 20, 5,
            include_higher=True),
    }
    (out / "library").mkdir(parents=True)
    for name, report in reports.items():
        (out / "library" / f"{name}.json").write_text(
            json.dumps(dataclasses.asdict(report)))
    # The Greeks at every node of the first, middle and last kept slice.
    fields = {}
    for name, s in (("surface", surface), ("p0", p0), ("p1", p1)):
        kept = s.kept_times
        for k in (kept[0], kept[len(kept) // 2], kept[-1]):
            g = uv.greeks(s, k)
            fields[f"{name}_{k}"] = {f.name: getattr(g, f.name).tolist()
                                     for f in dataclasses.fields(g)}
    (out / "library" / "greeks.json").write_text(json.dumps(fields))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = argv[0]
    if Path(out).exists() and any(Path(out).iterdir()):
        print(f"{out} already holds files; give an empty or new directory",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH="src")
    for config, command, extra in RUNS:
        args = [sys.executable, "-m", "uvpricer", command,
                "--config", f"configs/{config}.json", *extra,
                "--out", f"{out}/{run_dir(config, command, extra)}"]
        done = subprocess.run(args, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{' '.join(args[1:])} exited {done.returncode}:\n"
                  f"{done.stderr}", file=sys.stderr)
            return 1
    root = Path(out)
    write_library(root)
    for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  ./{path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
