"""The benchmark's workloads: generated configs, operations and output checks.

Every operation is either a CLI subcommand (``uvpricer.cli.main``) writing
into its own output directory, or a documented library call.  The
workload seed drives every Monte-Carlo seed; grids, payoffs, delta lists,
pricing points and path counts are fixed, so the work per operation does
not depend on the seed.

Each operation is checked against an oracle that does not reuse the code
under test: the config hash is recomputed from the generated document,
prices are compared with ``analytic.fixed_vol_price`` (the closed form,
not a solver), and Monte-Carlo means with their exact expectations within
a few standard errors computed here with numpy.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import numpy as np

POINT = (100.0, -1.0)
BUTTERFLY = [[90.0, 1.0], [100.0, -2.0], [110.0, 1.0]]
MODEL = {"a": 0.6, "b": 0.5, "alpha": 2.0, "rho": 0.5,
         "sigma_min": 0.1, "sigma_max": 0.2, "delta": 0.2}
# Share of the payoff's maximum by which a price may fall short of its
# closed-form bound on the grid (the 0.5% discretization allowance of
# acceptance 05).
PRICE_TOL = 0.005
# Standard errors a Monte-Carlo mean may sit from its exact expectation.
MC_SIGMAS = 5.0
# Paths the simulate command writes to paths.csv (its max_csv_paths default).
CSV_PATHS = 100

# Full and smoke sizes.  pde_sweep is the section-4 model and grid with
# n_x and n_v halved, which keeps one price/corrector/sweep round near
# 3 s; the refined-grid noise-floor solve stays in the sweep.
SIZES = {
    "full": {
        "pde_grid": {"x_min": 0.0, "x_max": 400.0, "n_x": 200,
                     "v_min": -2.0, "v_max": 0.0, "n_v": 20},
        "mc_paths": 40_000, "mc_steps": 150,
        "surface_grid": {"x_min": 60.0, "x_max": 140.0, "n_x": 159,
                         "v_min": -2.2, "v_max": 0.2, "n_v": 25},
        "surface_paths": 20_000, "surface_steps": 128,
    },
    "smoke": {
        "pde_grid": {"x_min": 0.0, "x_max": 300.0, "n_x": 59,
                     "v_min": -2.0, "v_max": 0.0, "n_v": 6},
        "mc_paths": 2_000, "mc_steps": 30,
        "surface_grid": {"x_min": 60.0, "x_max": 140.0, "n_x": 159,
                         "v_min": -2.2, "v_max": 0.2, "n_v": 25},
        "surface_paths": 2_000, "surface_steps": 128,
    },
}


class CheckError(Exception):
    """An operation's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``check`` is not.

    ``check`` receives the value ``call`` returned, raises
    :class:`CheckError` on a wrong output, and returns the numbers worth
    recording beside the timings.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    out_dir: Path | None = None


def _config_hash(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _payoff_max(legs) -> float:
    kinks = [k for k, _ in legs]
    return max(_payoff(legs, np.array(kinks)))


def _payoff(legs, x: np.ndarray) -> np.ndarray:
    return sum(w * np.maximum(x - k, 0.0) for k, w in legs)


class _Cli:
    """Runs one subcommand on a generated config and reads back its outputs."""

    def __init__(self, uv, work: Path, name: str, doc: dict, command: str):
        self.out = work / "out" / name
        self.doc = dict(copy.deepcopy(doc), out_dir=str(self.out))
        self.path = work / f"{name}.json"
        self.path.write_text(json.dumps(doc, indent=2))
        self.argv = [command, "--config", str(self.path), "--out", str(self.out)]
        self.uv = uv

    def __call__(self) -> int:
        return self.uv.cli.main(self.argv)

    def summary(self, rc: int) -> dict:
        expect(rc == 0, f"exit code {rc}")
        summary = json.loads((self.out / "summary.json").read_text())
        expect(summary["config_hash"] == _config_hash(self.doc),
               "summary config_hash is not the sha256 of the config")
        return summary

    def read_json(self, name: str) -> dict:
        return json.loads((self.out / name).read_text())


class _PriceBound:
    """Closed-form lower bound on a worst-case price at a point.

    The comparison principle puts the price above the fixed-multiplier
    price at both ends of the interval.  The bound is the closed form
    interpolated linearly between the grid's bracketing asset nodes, as
    the solver's reading is, so a coarse grid's interpolation error does
    not count as a violation.
    """

    def __init__(self, uv, legs, model: dict, grid: dict, T: float):
        self.uv = uv
        self.payoff = uv.PiecewiseLinearPayoff.from_calls(
            [tuple(leg) for leg in legs])
        self.vols = (model["sigma_min"], model["sigma_max"])
        self.grid = grid
        self.T = T
        self.tol = PRICE_TOL * _payoff_max(legs)

    def value(self, x: float, v: float) -> float:
        g = self.grid
        dx = (g["x_max"] - g["x_min"]) / (g["n_x"] + 1)
        i = min(max(math.floor((x - g["x_min"]) / dx), 0), g["n_x"])
        lo = g["x_min"] + i * dx
        w = (x - lo) / dx
        best = -math.inf
        for q in self.vols:
            vol = q * math.exp(v)
            left = self.uv.fixed_vol_price(self.payoff, lo, vol, self.T)
            right = self.uv.fixed_vol_price(self.payoff, lo + dx, vol, self.T)
            best = max(best, (1.0 - w) * left + w * right)
        return best

    def check(self, name: str, price: float) -> None:
        bound = self.value(*POINT)
        expect(math.isfinite(price), f"{name} is not finite")
        expect(price >= bound - self.tol,
               f"{name}={price!r} below the fixed-multiplier bound "
               f"{bound!r} by more than {self.tol!r}")


def _mean_within(name: str, mean: float, se: float, want: float) -> None:
    expect(math.isfinite(mean) and se > 0.0, f"{name}: mean or error not finite")
    expect(abs(mean - want) <= MC_SIGMAS * se,
           f"{name}={mean!r} is {abs(mean - want) / se:.1f} standard errors "
           f"from {want!r}")


def _base_doc(grid: dict, seed: int, delta: float | None = None) -> dict:
    model = dict(MODEL)
    if delta is not None:
        model["delta"] = delta
    return {"model": model, "payoff": {"calls": BUTTERFLY},
            "grid": dict(grid, T=0.15, n_t=None), "seed": seed,
            "out_dir": "out"}


# -- pde_sweep -----------------------------------------------------------------

def pde_sweep(uv, work: Path, seed: int, size: dict) -> list[Op]:
    """price, corrector and sweep on the (halved) section-4 grid."""
    grid = size["pde_grid"]
    doc = _base_doc(grid, Random(seed).randrange(2**31))
    doc["price"] = {"point": list(POINT)}
    doc["sweep"] = {"point": list(POINT), "deltas": [0.5, 0.2, 0.001]}
    doc["corrector"] = {"point": list(POINT), "deltas": [0.04, 0.16, 0.36],
                        "noise_floor": 0.0}
    bound = _PriceBound(uv, BUTTERFLY, MODEL, grid, 0.15)
    price = _Cli(uv, work, "price", doc, "price")
    corrector = _Cli(uv, work, "corrector", doc, "corrector")
    sweep = _Cli(uv, work, "sweep", doc, "sweep")

    def check_price(rc):
        s = price.summary(rc)
        bound.check("P_delta", s["p_delta"])
        bound.check("P0", s["p0"])
        expect(s["error"] == s["p_delta"] - s["p0"], "error != P_delta - P0")
        return {"p_delta": s["p_delta"], "p0": s["p0"]}

    def check_corrector(rc):
        s = corrector.summary(rc)
        report = corrector.read_json("corrector.json")
        bound.check("P0", s["p0"])
        expect(math.isfinite(s["p1"]), "P1 is not finite")
        for row in report["rows"]:
            bound.check(f"P_delta at delta={row['delta']}", row["p_delta"])
            remainder = row["p_delta"] - row["p0"] - math.sqrt(row["delta"]) * row["p1"]
            expect(math.isclose(row["e_delta"], remainder, rel_tol=1e-9,
                                abs_tol=1e-12),
                   f"remainder at delta={row['delta']} is not P_delta-P0-sqrt(delta)P1")
        expect((corrector.out / "surface_p1.csv").stat().st_size > 0,
               "surface_p1.csv is empty")
        return {"p1": s["p1"], "corrector_ratio": report["ratio"]}

    def check_sweep(rc):
        s = sweep.summary(rc)
        report = sweep.read_json("sweep.json")
        floor = report["noise_floor"]
        expect(math.isfinite(floor) and floor > 0.0, "noise floor not positive")
        expect(report["n_usable_rows"] >= 2, "fewer than two usable rows")
        expect(math.isfinite(s["slope"]), "slope is not finite")
        bound.check("P0", s["p0"])
        for row in report["rows"]:
            bound.check(f"P_delta at delta={row['delta']}", row["p_delta"])
        return {"slope": s["slope"], "noise_floor": floor,
                "result_err": floor}

    return [Op("price", price, check_price, price.out),
            Op("corrector", corrector, check_corrector, corrector.out),
            Op("sweep", sweep, check_sweep, sweep.out)]


# -- mc_paths ------------------------------------------------------------------

def mc_paths(uv, work: Path, seed: int, size: dict) -> list[Op]:
    """simulate at three deltas, a coupled gap and path moments, fixed q."""
    seeds = Random(seed)
    n_paths, n_steps = size["mc_paths"], size["mc_steps"]
    x0, v0 = POINT
    q, T = 0.15, 0.15
    grid = size["pde_grid"]  # simulate reads only T from the grid block
    ops = []
    for delta in (0.25, 0.5, 1.0):
        doc = _base_doc(grid, seeds.randrange(2**31), delta)
        doc["simulate"] = {"x0": x0, "v0": v0, "q": q, "n_paths": n_paths,
                           "n_steps": n_steps}
        run = _Cli(uv, work, f"simulate_{delta}", doc, "simulate")

        def check_simulate(rc, run=run):
            s = run.summary(rc)
            details = s["details"]
            expect(details["n_paths"] == n_paths and details["n_steps"] == n_steps,
                   "summary path counts differ from the config")
            lines = (run.out / "paths.csv").read_text().splitlines()
            data = [line for line in lines if not line.startswith("#")][1:]
            rows = np.array([line.split(",") for line in data], dtype=float)
            expect(rows.shape == (CSV_PATHS * (n_steps + 1), 5),
                   f"paths.csv has shape {rows.shape}")
            terminal = rows[rows[:, 1] == n_steps, 3]
            se = float(terminal.std(ddof=1)) / math.sqrt(n_paths)
            _mean_within("E[X_T]", details["x_terminal_mean"], se, x0)
            return {}

        ops.append(Op(f"simulate_{delta}", run, check_simulate, run.out))

    model = uv.ModelParams(r=0.0, sigma=0.5, **dict(MODEL, delta=0.5))
    payoff = uv.PiecewiseLinearPayoff.from_calls([tuple(l) for l in BUTTERFLY])
    gap_seed = seeds.randrange(2**31)

    def gap():
        return uv.coupled_payoff_gap(model, payoff, x0, v0, q, n_paths,
                                     n_steps, T, gap_seed)

    def check_gap(report):
        expect(report.n_paths == n_paths, "gap n_paths differs")
        expect(report.std_error > 0.0 and report.gap_sq > 3.0 * report.std_error,
               f"gap {report.gap_sq!r} not resolved above its error")
        expect(report.payoff_gap_sq >= 0.0 and math.isfinite(report.payoff_std_error),
               "payoff gap is negative or not finite")
        return {"gap_sq": report.gap_sq}

    moment_model = dataclasses.replace(model, delta=1.0)
    moment_seed = seeds.randrange(2**31)

    def moments():
        batch = uv.simulate_paths(moment_model, x0, v0, q, n_paths, n_steps,
                                  T, moment_seed)
        return batch, (uv.estimate_moment(batch, "X", 1),
                       uv.estimate_moment(batch, "X", 2),
                       uv.estimate_moment(batch, "V", 2, time_integrated=True))

    def check_moments(result):
        batch, (m1, m2, mv) = result
        x_t = np.asarray(batch.x_paths[:, -1])
        se = float(x_t.std(ddof=1)) / math.sqrt(n_paths)
        _mean_within("E[X_T]", float(x_t.mean()), se, x0)
        v = np.asarray(batch.v_paths)
        dt = T / n_steps
        v2 = (v[:, :-1] ** 2 + v[:, 1:] ** 2).sum(axis=1) * 0.5 * dt
        for report, want in ((m1, x_t.mean()), (m2, (x_t**2).mean()),
                             (mv, v2.mean())):
            expect(math.isclose(report.estimate, float(want), rel_tol=1e-9),
                   f"moment {report.which}^{report.order} = {report.estimate!r}, "
                   f"numpy gives {float(want)!r}")
        return {"x_mean": float(x_t.mean()), "x_mean_se": se,
                "int_v2": mv.estimate, "result_err": se}

    ops.append(Op("coupled_gap", gap, check_gap))
    ops.append(Op("moments", moments, check_moments))
    return ops


# -- surface_mc ----------------------------------------------------------------

def surface_mc(uv, work: Path, seed: int, size: dict) -> list[Op]:
    """2BSDE checks on both surfaces, a worst-case-policy simulation and
    the Feynman-Kac error terms, all reading stored slices along paths."""
    seeds = Random(seed)
    grid = size["surface_grid"]
    n_paths, n_steps = size["surface_paths"], size["surface_steps"]
    bound = _PriceBound(uv, BUTTERFLY, MODEL, grid, 0.15)
    ops = []
    for kind in ("full_delta", "limit_p0"):
        doc = _base_doc(grid, seeds.randrange(2**31))
        doc["check2bsde"] = {"point": list(POINT), "n_paths": n_paths,
                             "n_steps": n_steps, "surface": kind}
        run = _Cli(uv, work, f"check2bsde_{kind}", doc, "check2bsde")

        def check_bsde(rc, run=run, kind=kind):
            s = run.summary(rc)
            report = run.read_json("bsde_report.json")
            value = s["p_delta"] if kind == "full_delta" else s["p0"]
            bound.check(kind, value)
            expect(report["y0_fd"] == value, "y0_fd differs from the price")
            used = report["n_paths_used"]
            expect(used + report["n_paths_discarded"] == n_paths,
                   "path counts do not add up")
            rms = report["terminal_residual_rms"]
            # The residual's mean carries the scheme's O(dt) bias as well as
            # Monte-Carlo noise, so the band adds the price tolerance.
            se = rms / math.sqrt(used)
            gap = abs(report["y0_mean"] - report["y0_fd"])
            band = 3.0 * se + PRICE_TOL * abs(value)
            expect(gap <= band, f"|y0_mean - y0_fd| = {gap!r} above {band!r}")
            record = {f"{kind}.y0_fd": value, f"{kind}.y0_gap": gap,
                      f"{kind}.residual_rms": rms}
            if kind == "full_delta":
                record["result_err"] = rms
            return record

        ops.append(Op(f"check2bsde_{kind}", run, check_bsde, run.out))

    params = uv.ModelParams(r=0.0, sigma=0.5, **MODEL)
    payoff = uv.PiecewiseLinearPayoff.from_calls([tuple(l) for l in BUTTERFLY])
    trial = uv.GridSpec(T=0.15, n_t=1, **grid)
    solve_grid = dataclasses.replace(
        trial, n_t=uv.min_time_steps(params, trial, "full"))
    x0, v0 = POINT
    policy_seed = seeds.randrange(2**31)
    fk_seed = seeds.randrange(2**31)

    def policy_paths():
        surface = uv.solve_hjb_2d(params, payoff, solve_grid, store_slices=True,
                                  max_kept_slices=2 * n_steps + 1)
        price = surface.value_at(0, x0, v0)
        policy = uv.WorstCaseControl(surface, params)
        batch = uv.simulate_paths(params, x0, v0, policy, n_paths, n_steps,
                                  solve_grid.T, policy_seed)
        return price, batch

    def check_policy(result):
        price, batch = result
        bound.check("P_delta", price)
        x_t = np.asarray(batch.x_paths[:, -1])
        se = float(x_t.std(ddof=1)) / math.sqrt(n_paths)
        _mean_within("E[X_T]", float(x_t.mean()), se, x0)
        h = _payoff(BUTTERFLY, x_t)
        h_se = float(h.std(ddof=1)) / math.sqrt(n_paths)
        gap = abs(float(h.mean()) - price)
        band = 3.0 * h_se + PRICE_TOL * price
        expect(gap <= band,
               f"worst-case E[h]={h.mean()!r} vs P={price!r}: gap above {band!r}")
        return {"policy_payoff_mean": float(h.mean()), "policy_price": price}

    def fk_terms():
        p0 = uv.solve_bsb_1d(params, payoff, solve_grid, store_slices=True)
        p1 = uv.solve_corrector(params, payoff, solve_grid, p0, store_slices=True)
        return uv.feynman_kac_terms(params, payoff, solve_grid, p0, p1,
                                    params.delta, n_paths, n_steps, fk_seed,
                                    point=POINT, include_higher=True)

    def check_fk(report):
        expect(report.n_paths == n_paths, "FK n_paths differs")
        for name in ("i0", "i1", "i2", "i3"):
            value = getattr(report, name)
            err = getattr(report, f"{name}_std_error")
            expect(value is not None and math.isfinite(value),
                   f"{name} is not finite")
            expect(err is not None and math.isfinite(err) and err >= 0.0,
                   f"{name} standard error is not finite")
        return {"fk.i0": report.i0, "fk.i1": report.i1, "fk.i2": report.i2}

    ops.append(Op("policy_paths", policy_paths, check_policy))
    ops.append(Op("feynman_kac", fk_terms, check_fk))
    return ops


WORKLOADS = {"pde_sweep": pde_sweep, "mc_paths": mc_paths,
             "surface_mc": surface_mc}


def config_paths(work: Path) -> list[Path]:
    """The generated config files a workload's CLI operations read."""
    return sorted(work.glob("*.json"))
