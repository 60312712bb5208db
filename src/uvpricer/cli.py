"""Command-line entry point: price, simulate, sweep, corrector, check2bsde.

Every subcommand reads one JSON config (see :mod:`uvpricer.config`),
writes its artifacts into the output directory, and prints a short
result line.  All artifacts embed the SHA-256 hash of the effective
config — including ``--set`` overrides — so a run can be reproduced
byte for byte from its outputs.  Exit codes: 0 success, 1 config or
validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .bsde import _check_residual_run, simulate_2bsde_residual
from .config import RunConfig, apply_override, config_hash, load_config
from .convergence import corrector_sweep, run_delta_sweep
from .errors import ConfigError, FitError, NonFiniteError, PoleError, StabilityError
from .hjb import _surface, min_time_steps, solve_bsb_1d, solve_hjb_2d
from .sde import _Job, _shared, _simulate
from .surface import _write_json


def _resolve_grid(cfg: RunConfig, kind: str, delta: float | None = None,
                  n_steps: int = 1):
    """The config's grid; an automatic ``n_t`` is at least ``n_steps``."""
    if not cfg.auto_n_t:
        return cfg.grid
    params = cfg.model if delta is None else cfg.model.with_delta(delta)
    return dataclasses.replace(
        cfg.grid, n_t=max(n_steps, min_time_steps(params, cfg.grid, kind))
    )


def _with_limit(params, payoff, grid, cell_average_terminal):
    """:func:`solve_hjb_2d` and :func:`solve_bsb_1d` on ``grid``, the first
    in a forked :class:`sde._Job` beside the second; with no child, or
    after any failure (the child's too), the two solves run in this
    process once, which raise in their order."""
    kw = dict(cell_average_terminal=cell_average_terminal)
    full = _shared((2, grid.n_x + 2, grid.n_v))

    def solve_full(out):
        out[...] = solve_hjb_2d(params, payoff, grid, **kw).values

    job = _Job(solve_full, full)
    try:
        if job.forked:
            p0 = solve_bsb_1d(params, payoff, grid, **kw)
            if job.wait():
                return _surface(full, grid, params, "full_delta", (0, grid.n_t)), p0
    except Exception:
        pass
    finally:
        job.cancel()
    return [solve(params, payoff, grid, **kw) for solve in (solve_hjb_2d, solve_bsb_1d)]


def _require_block(cfg: RunConfig, name: str):
    block = getattr(cfg, name)
    if block is None:
        raise ConfigError(
            f"the '{name}' command needs a '{name}' block in the config",
            key_path=name,
        )
    return block


def _write_summary(out: Path, command: str, chash: str, cfg: RunConfig,
                   p_delta=None, p0=None, p1=None, error=None, slope=None,
                   details=None) -> None:
    doc = {
        "command": command,
        "config_hash": chash,
        "sigma_vol_of_vol_assumed": cfg.sigma_assumed,
        "p_delta": p_delta,
        "p0": p0,
        "p1": p1,
        "error": error,
        "slope": slope,
    }
    if details is not None:
        doc["details"] = details
    _write_json(out / "summary.json", doc)


def _headers(chash: str, cfg: RunConfig, **extra) -> tuple[str, ...]:
    lines = [f"config_hash={chash}",
             f"sigma_vol_of_vol_assumed={cfg.sigma_assumed}"]
    lines += [f"{key}={value}" for key, value in extra.items()]
    return tuple(lines)


def cmd_price(cfg: RunConfig, out: Path, chash: str) -> None:
    block = _require_block(cfg, "price")
    x0, v0 = block.point
    if not cfg.grid.contains(x0, v0):
        raise ConfigError(
            f"point ({x0:g}, {v0:g}) lies outside the grid",
            key_path="price.point",
        )
    grid = _resolve_grid(cfg, "full")
    # With P0, the two solves run side by side.
    solves = (_with_limit(cfg.model, cfg.payoff, grid, block.cell_average_terminal)
              if block.solve_p0 else [solve_hjb_2d(
                  cfg.model, cfg.payoff, grid,
                  cell_average_terminal=block.cell_average_terminal)])
    p_delta = solves[0]
    value = p_delta.value_at(0, x0, v0)
    headers = _headers(chash, cfg)
    p_delta.to_csv(out / "surface_delta.csv", header_lines=headers)
    print(f"P_delta(0, x={x0:g}, v={v0:g}) = {value!r}")
    p0_value = error = None
    if block.solve_p0:
        p0 = solves[1]
        p0_value = p0.value_at(0, x0, v0)
        error = value - p0_value
        p0.to_csv(out / "surface_p0.csv", header_lines=headers)
        print(f"P_0(0, x={x0:g}, v={v0:g}) = {p0_value!r}")
        print(f"error = {error!r}")
    _write_summary(out, "price", chash, cfg, p_delta=value, p0=p0_value,
                   error=error, details={"point": [x0, v0]})


def cmd_sweep(cfg: RunConfig, out: Path, chash: str) -> None:
    block = _require_block(cfg, "sweep")
    grid = _resolve_grid(cfg, "full",
                         delta=max(block.deltas) if block.deltas else None)
    report = run_delta_sweep(
        cfg.model, cfg.payoff, grid, block.point, block.deltas,
        cell_average_terminal=block.cell_average_terminal,
        noise_floor=block.noise_floor,
    )
    headers = _headers(chash, cfg)
    extra = {
        "config_hash": chash,
        "sigma_vol_of_vol_assumed": cfg.sigma_assumed,
        "low_row_count": len(report.usable_rows) < 3,
    }
    report.to_csv(out / "sweep.csv", header_lines=headers)
    report.to_json(out / "sweep.json", extra=extra)
    report.to_plot_script(out / "sweep.gp", "sweep.csv", header_lines=headers)
    for row in report.rows:
        flag = " (excluded)" if row.excluded else ""
        print(f"delta={row.delta:g}: error={row.error!r}{flag}")
    print(f"slope = {report.slope!r}")
    _write_summary(out, "sweep", chash, cfg, p0=report.rows[0].p0,
                   slope=report.slope,
                   details={"noise_floor": report.noise_floor,
                            "n_usable_rows": len(report.usable_rows)})


def cmd_corrector(cfg: RunConfig, out: Path, chash: str) -> None:
    block = _require_block(cfg, "corrector")
    grid = _resolve_grid(cfg, "full",
                         delta=max(block.deltas) if block.deltas else None)
    report = corrector_sweep(
        cfg.model, cfg.payoff, grid, block.point, block.deltas,
        cell_average_terminal=block.cell_average_terminal,
        noise_floor=block.noise_floor,
    )
    headers = _headers(chash, cfg)
    report.to_csv(out / "corrector.csv", header_lines=headers)
    report.to_json(out / "corrector.json",
                   extra={"config_hash": chash,
                          "sigma_vol_of_vol_assumed": cfg.sigma_assumed})
    report.p1_surface.to_csv(out / "surface_p1.csv", header_lines=headers)
    for row in report.rows:
        print(f"delta={row.delta:g}: e_delta={row.e_delta!r}")
    print(f"|e|/delta max/min ratio = {report.ratio!r}")
    _write_summary(out, "corrector", chash, cfg, p0=report.rows[0].p0,
                   p1=report.rows[0].p1,
                   details={"ratio": report.as_dict()["ratio"],
                            "noise_floor": report.noise_floor})


def cmd_simulate(cfg: RunConfig, out: Path, chash: str) -> None:
    block = _require_block(cfg, "simulate")
    # Only the paths written to paths.csv are kept whole.
    keep = block.n_paths if block.max_csv_paths is None else block.max_csv_paths
    batch, x_end, v_end = _simulate(
        cfg.model, block.x0, block.v0, block.q, block.n_paths,
        block.n_steps, cfg.grid.T, cfg.seed, keep,
    )
    headers = _headers(chash, cfg, seed=cfg.seed)
    batch.to_csv(out / "paths.csv", max_paths=block.max_csv_paths,
                 header_lines=headers)
    x_mean = float(np.mean(x_end))
    v_mean = float(np.mean(v_end))
    print(f"simulated {block.n_paths} paths, {block.n_steps} steps, "
          f"T={cfg.grid.T:g}")
    print(f"terminal means: x={x_mean!r}, v={v_mean!r}")
    _write_summary(out, "simulate", chash, cfg,
                   details={"n_paths": block.n_paths,
                            "n_steps": block.n_steps,
                            "seed": cfg.seed,
                            "control_tag": batch.control_tag,
                            "x_terminal_mean": x_mean,
                            "v_terminal_mean": v_mean})


def cmd_check2bsde(cfg: RunConfig, out: Path, chash: str) -> None:
    block = _require_block(cfg, "check2bsde")
    x0, v0 = block.point
    _check_residual_run(cfg.grid, x0, v0, block.n_paths, block.n_steps,
                        cfg.seed)
    full = block.surface == "full_delta"
    solve, kind = (solve_hjb_2d, "full") if full else (solve_bsb_1d, "bsb")
    grid = _resolve_grid(cfg, kind, n_steps=block.n_steps)
    surface = solve(cfg.model, cfg.payoff, grid, store_slices=True,
                    max_kept_slices=2 * block.n_steps + 1)
    report = simulate_2bsde_residual(
        surface, cfg.model, (x0, v0), block.n_paths, block.n_steps,
        cfg.seed, payoff=cfg.payoff,
    )
    value = surface.value_at(0, x0, v0)
    report.to_json(out / "bsde_report.json",
                   extra={"config_hash": chash,
                          "sigma_vol_of_vol_assumed": cfg.sigma_assumed,
                          "surface": block.surface,
                          "point": [x0, v0],
                          "seed": cfg.seed})
    print(f"y0_fd = {report.y0_fd!r}")
    print(f"y0_mean = {report.y0_mean!r}")
    print(f"terminal_residual_rms = {report.terminal_residual_rms!r}")
    value_key = "p_delta" if full else "p0"
    _write_summary(out, "check2bsde", chash, cfg,
                   **{value_key: value},
                   details=dict(report.as_dict(), surface=block.surface,
                                seed=cfg.seed))


_COMMANDS = {
    "price": cmd_price,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "corrector": cmd_corrector,
    "check2bsde": cmd_check2bsde,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvpricer",
        description="Worst-case option pricing under a slowly varying "
                    "uncertain-volatility factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "price": "solve the worst-case price surface and report one value",
        "simulate": "simulate model paths under a fixed multiplier",
        "sweep": "error sweep over delta with a log-log slope fit",
        "corrector": "remainder sweep after the sqrt(delta) correction",
        "check2bsde": "Monte-Carlo consistency check of a solved surface",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides the config)")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a config field by dotted path, "
                            "e.g. --set model.delta=0.1")
    return parser


def _run(command: str, cfg: RunConfig, out: Path, chash: str) -> int:
    """Run one command and map its failure to an exit code."""
    try:
        _COMMANDS[command](cfg, out, chash)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (StabilityError, NonFiniteError, PoleError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        for item in args.overrides:
            apply_override(doc, item)
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.out is not None:
            doc["out_dir"] = args.out
        chash = config_hash(doc)
        cfg = RunConfig.from_dict(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(cfg.out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    code = _run(args.command, cfg, out, chash)
    if code != 0:
        # A failed command leaves no directory of its own making that it
        # wrote nothing into.
        for d in made:
            try:
                d.rmdir()
            except OSError:
                break
    return code


if __name__ == "__main__":
    sys.exit(main())
