"""Run the README's eight *Refactor check* commands and hash their output.

Usage, from the root of a checkout::

    python scripts/refactor_check.py OUT > hashes.txt

Each command runs ``python -m uvpricer`` on ``src/`` of the current
directory and writes into a subdirectory of ``OUT``, which must not hold
files yet.  The script prints one ``sha256  ./path`` line per file written,
sorted by path, as ``find . -type f | sort | xargs sha256sum`` run in
``OUT`` prints them.  ``--out`` enters every artifact's config hash, so
compare two checkouts by running this script in each with the same
relative ``OUT`` and diffing the two listings.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUNS = (
    [("quickstart", c, []) for c in ("price", "sweep", "simulate")]
    + [("section4", c, []) for c in ("price", "sweep", "corrector")]
    + [("check2bsde", "check2bsde", []),
       ("check2bsde", "check2bsde", ["--set", "check2bsde.surface=limit_p0"])]
)


def run_dir(config: str, command: str, extra: list[str]) -> str:
    return f"{config}_limit" if extra else f"{config}_{command}"


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
    for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  ./{path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
