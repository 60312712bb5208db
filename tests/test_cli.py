"""Tests for the JSON config schema and the command-line interface."""

import copy
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uvpricer.hjb as hjb
from uvpricer import bsde, cli, sde
from uvpricer.analytic import bs_call
from uvpricer.cli import main
from uvpricer.config import (
    RunConfig,
    apply_override,
    config_hash,
    load_config,
)
from uvpricer.errors import ConfigError, NonFiniteError
from uvpricer.sde import simulate_paths

from forking import assert_no_children, forked, in_process_peak


def base_doc(out_dir):
    return {
        "model": {"r": 0.0, "a": 0.6, "b": 0.5, "alpha": 2.0, "sigma": 0.5,
                  "rho": 0.5, "sigma_min": 0.1, "sigma_max": 0.2,
                  "delta": 0.2},
        "payoff": {"calls": [[90.0, 1.0], [100.0, -2.0], [110.0, 1.0]]},
        "grid": {"x_min": 0.0, "x_max": 200.0, "n_x": 99, "v_min": -1.5,
                 "v_max": -0.5, "n_v": 5, "T": 0.15, "n_t": None},
        "out_dir": str(out_dir),
        "seed": 7,
        "price": {"point": [100.0, -1.0]},
    }


def write_doc(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigSchema:
    def test_happy_path(self, tmp_path):
        """A complete document parses into typed, validated pieces."""
        cfg = RunConfig.from_dict(base_doc(tmp_path))
        assert cfg.model.delta == 0.2
        assert cfg.payoff.lipschitz > 0
        assert cfg.grid.n_x == 99
        assert cfg.auto_n_t is True
        assert cfg.sigma_assumed is False
        assert cfg.seed == 7
        assert cfg.price.point == (100.0, -1.0)
        assert cfg.price.solve_p0 is True
        assert cfg.sweep is None

    def test_omitted_sigma_is_flagged(self, tmp_path):
        """Leaving out the vol-of-vol falls back to 0.5 and sets the flag."""
        doc = base_doc(tmp_path)
        del doc["model"]["sigma"]
        cfg = RunConfig.from_dict(doc)
        assert cfg.model.sigma == 0.5
        assert cfg.sigma_assumed is True

    def test_explicit_n_t_disables_auto_sizing(self, tmp_path):
        """A concrete n_t is kept verbatim for the stability gate to judge."""
        doc = base_doc(tmp_path)
        doc["grid"]["n_t"] = 123
        cfg = RunConfig.from_dict(doc)
        assert cfg.grid.n_t == 123
        assert cfg.auto_n_t is False

    def test_unknown_keys_name_their_path(self, tmp_path):
        """Typos are rejected with the dotted path of the offender."""
        doc = base_doc(tmp_path)
        doc["grid"]["dx"] = 1.0
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "grid.dx"
        doc = base_doc(tmp_path)
        doc["pricee"] = {}
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "pricee"

    def test_missing_and_mistyped_keys(self, tmp_path):
        """Required keys and type mismatches carry their paths too."""
        doc = base_doc(tmp_path)
        del doc["model"]["rho"]
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "model.rho"
        doc = base_doc(tmp_path)
        doc["grid"]["n_x"] = "99"
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "grid.n_x"
        doc = base_doc(tmp_path)
        doc["model"]["delta"] = True
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "model.delta"

    @pytest.mark.parametrize("seed, ok", [(-1, False), (2**128, False),
                                          (0, True), (2**128 - 1, True)],
                             ids=["-1", "2**128", "0", "2**128-1"])
    def test_seed_is_a_philox_key(self, tmp_path, seed, ok):
        """The seed keys a 128-bit Philox, so it lies in [0, 2**128)."""
        doc = base_doc(tmp_path)
        doc["seed"] = seed
        if ok:
            assert RunConfig.from_dict(doc).seed == seed
        else:
            with pytest.raises(ConfigError) as err:
                RunConfig.from_dict(doc)
            assert err.value.key_path == "seed"

    def test_model_invariants_surface_as_config_errors(self, tmp_path):
        """An inconsistent volatility interval names sigma_min on load."""
        doc = base_doc(tmp_path)
        doc["model"]["sigma_min"] = 0.3
        with pytest.raises(ConfigError, match="sigma_min"):
            RunConfig.from_dict(doc)

    def test_payoff_and_point_validation(self, tmp_path):
        """Empty call lists and malformed points are rejected."""
        doc = base_doc(tmp_path)
        doc["payoff"]["calls"] = []
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "payoff.calls"
        doc = base_doc(tmp_path)
        doc["price"]["point"] = [100.0]
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "price.point"
        doc = base_doc(tmp_path)
        doc["sweep"] = {"point": [100.0, -1.0], "deltas": [0.2, "x"]}
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.key_path == "sweep.deltas[1]"

    def test_overrides(self, tmp_path):
        """Dotted overrides parse JSON values and fall back to strings."""
        doc = base_doc(tmp_path)
        apply_override(doc, "model.delta=0.5")
        assert doc["model"]["delta"] == 0.5
        apply_override(doc, "out_dir=elsewhere")
        assert doc["out_dir"] == "elsewhere"
        apply_override(doc, "sweep.deltas=[0.1, 0.4]")
        assert doc["sweep"]["deltas"] == [0.1, 0.4]
        apply_override(doc, "price.solve_p0=false")
        assert doc["price"]["solve_p0"] is False
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_override(doc, "model.delta")
        with pytest.raises(ConfigError) as err:
            apply_override(doc, "model.delta.x=1")
        assert err.value.key_path == "model.delta"

    def test_config_hash_is_order_insensitive(self, tmp_path):
        """Hashes depend on content, not key order, and change with content."""
        doc = base_doc(tmp_path)
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        assert config_hash(doc) == config_hash(reordered)
        doc["model"]["delta"] = 0.5
        assert config_hash(doc) != config_hash(base_doc(tmp_path))

    def test_load_config_maps_file_problems(self, tmp_path):
        """Missing files and bad JSON become config errors."""
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)


QUICKSTART = load_config(
    pathlib.Path(__file__).resolve().parents[1] / "configs" / "quickstart.json")


def scalar_paths(doc, prefix=()):
    """Key paths of the entries of ``doc`` that are neither objects nor lists."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from scalar_paths(value, (*prefix, key))
        elif not isinstance(value, list):
            yield (*prefix, key)


# A dotted path: an existing scalar of the quickstart config, or a new key
# (random, or one a block may leave out) under a block.
OVERRIDE_PATHS = st.one_of(
    st.sampled_from(sorted(scalar_paths(QUICKSTART))),
    st.tuples(
        st.sampled_from(sorted(k for k, v in QUICKSTART.items()
                               if isinstance(v, dict)) + ["corrector"]),
        st.one_of(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                          max_size=12),
                  st.sampled_from(["r", "sigma", "cfl_safety", "solve_p0",
                                   "cell_average_terminal", "noise_floor",
                                   "max_csv_paths"])),
    ),
)
# Integers within 2**53 are exact as floats, so a number field parses to
# a float equal to the integer.
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                        st.floats(), st.text(),
                        st.lists(st.floats(allow_nan=False), max_size=3))


class TestOverrideRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(path=OVERRIDE_PATHS, value=JSON_VALUES)
    def test_set_equals_the_hand_edit(self, path, value):
        """``--set`` hashes as the document edited by hand, and a value the
        schema accepts is the parsed field's value."""
        doc = copy.deepcopy(QUICKSTART)
        apply_override(doc, f"{'.'.join(path)}={json.dumps(value)}")
        by_hand = copy.deepcopy(QUICKSTART)
        node = by_hand
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        assert config_hash(doc) == config_hash(by_hand)
        try:
            cfg = RunConfig.from_dict(doc)
        except ConfigError:
            return
        if path == ("grid", "n_t") and value is None:
            assert cfg.auto_n_t
            return
        field = cfg
        for key in path:
            field = getattr(field, key)
        assert field == value or (value != value and field != field)


class TestPriceCommand:
    def test_failing_full_solve_is_made_once_without_a_child(
            self, tmp_path, monkeypatch, capsys):
        """With no child, a failing full solve is made once, as the first
        of the two solves in their order, and nothing is replayed."""
        monkeypatch.setattr(sde, "_fork_ok", lambda: False)
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append("full")
            raise NonFiniteError("NaN at step 3", time_index=3)

        def counting_bsb(*args, real=cli.solve_bsb_1d, **kwargs):
            calls.append("bsb")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_hjb_2d", failing_solve)
        monkeypatch.setattr(cli, "solve_bsb_1d", counting_bsb)
        config = (pathlib.Path(__file__).resolve().parents[1] / "configs"
                  / "quickstart.json")
        assert main(["price", "--config", str(config), "--out",
                     str(tmp_path / "out")]) == 2
        assert "NaN at step 3" in capsys.readouterr().err
        assert calls == ["full"]

    def test_price_writes_artifacts_and_summary(self, tmp_path, capsys):
        """The price command prints values and persists hashed artifacts."""
        out = tmp_path / "out"
        path = write_doc(tmp_path, base_doc(out))
        assert main(["price", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "P_delta(0, x=100, v=-1) = " in captured.out
        assert "P_0(0, x=100, v=-1) = " in captured.out
        assert "error = " in captured.out

        summary = json.loads((out / "summary.json").read_text())
        for key in ("p_delta", "p0", "p1", "error", "slope", "config_hash",
                    "sigma_vol_of_vol_assumed"):
            assert key in summary
        assert summary["command"] == "price"
        assert summary["p_delta"] > 0
        assert summary["error"] == summary["p_delta"] - summary["p0"]
        assert summary["p1"] is None
        assert summary["sigma_vol_of_vol_assumed"] is False

        surface_csv = (out / "surface_delta.csv").read_text().splitlines()
        assert surface_csv[0] == f"# config_hash={summary['config_hash']}"
        assert surface_csv[1] == "# sigma_vol_of_vol_assumed=False"
        assert (out / "surface_p0.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        """Identical config and seed reproduce identical CSV bytes."""
        out = tmp_path / "out"
        path = write_doc(tmp_path, base_doc(out))
        assert main(["price", "--config", path]) == 0
        first = (out / "surface_delta.csv").read_bytes()
        assert main(["price", "--config", path]) == 0
        assert (out / "surface_delta.csv").read_bytes() == first

    def test_omitted_sigma_flag_reaches_outputs(self, tmp_path):
        """Configs without model.sigma are flagged in summary and headers."""
        out = tmp_path / "out"
        doc = base_doc(out)
        del doc["model"]["sigma"]
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sigma_vol_of_vol_assumed"] is True
        header = (out / "surface_delta.csv").read_text().splitlines()[1]
        assert header == "# sigma_vol_of_vol_assumed=True"

    def test_set_override_changes_run_and_hash(self, tmp_path):
        """--set model.delta=0 collapses the error and changes the hash."""
        out = tmp_path / "out"
        path = write_doc(tmp_path, base_doc(out))
        assert main(["price", "--config", path,
                     "--set", "model.delta=0.0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["error"]) < 1e-9
        assert main(["price", "--config", path]) == 0
        summary2 = json.loads((out / "summary.json").read_text())
        assert summary2["config_hash"] != summary["config_hash"]

    def test_degenerate_interval_matches_black_scholes(self, tmp_path):
        """With a one-point interval the limit price is Black-Scholes."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["model"].update(sigma_min=0.15, sigma_max=0.15)
        doc["payoff"] = {"calls": [[100.0, 1.0]]}
        doc["grid"].update(n_x=199)
        doc["price"] = {"point": [100.0, -1.0],
                        "cell_average_terminal": True}
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        oracle = bs_call(100.0, 100.0, 0.15 * math.exp(-1.0), 0.15)
        assert summary["p0"] == pytest.approx(oracle, rel=5e-3)

    def test_exit_codes(self, tmp_path, capsys):
        """Config problems exit 1 with the field named; instability exits 2."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["model"]["sigma_min"] = 0.3
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 1
        assert "sigma_min" in capsys.readouterr().err

        doc = base_doc(out)
        doc["grid"]["dx"] = 1.0
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 1
        assert "grid.dx" in capsys.readouterr().err

        doc = base_doc(out)
        del doc["price"]
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 1
        assert "price" in capsys.readouterr().err

        doc = base_doc(out)
        doc["grid"]["n_t"] = 3
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 2
        assert "stability" in capsys.readouterr().err

        doc = base_doc(out)
        doc["price"]["point"] = [500.0, -1.0]
        path = write_doc(tmp_path, doc)
        assert main(["price", "--config", path]) == 1
        assert "outside" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_writes_all_three_artifacts(self, tmp_path, capsys):
        """The sweep command persists CSV, JSON, and a plot script."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["sweep"] = {"point": [100.0, -1.0], "deltas": [0.2, 0.5],
                        "noise_floor": 0.0}
        path = write_doc(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "slope = " in captured.out
        assert "delta=0.5" in captured.out

        report = json.loads((out / "sweep.json").read_text())
        assert 0.0 < report["slope"] < 2.0
        assert report["low_row_count"] is True
        assert report["config_hash"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["slope"] == report["slope"]
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# config_hash=")
        script = (out / "sweep.gp").read_text()
        assert script.splitlines()[0].startswith("# config_hash=")
        assert "set logscale xy" in script

    def test_sweep_empty_deltas_is_validation_error(self, tmp_path, capsys):
        """An empty delta list exits with the validation code."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["sweep"] = {"point": [100.0, -1.0], "deltas": []}
        path = write_doc(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 1
        assert "empty" in capsys.readouterr().err

    def test_nan_noise_floor_is_validation_error(self, tmp_path, capsys):
        """A NaN noise floor, which ``json`` reads, exits with the validation
        code and writes no ``sweep.json``."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["sweep"] = {"point": [100.0, -1.0], "deltas": [0.2, 0.5],
                        "noise_floor": float("nan")}
        path = write_doc(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 1
        assert "noise_floor" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()

    def test_corrector_zero_rho_exports_zero_surface(self, tmp_path, capsys):
        """With rho = 0 the exported correction surface is identically zero."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["model"]["rho"] = 0.0
        doc["corrector"] = {"point": [100.0, -1.0], "deltas": [0.16, 0.36],
                            "noise_floor": 0.0}
        path = write_doc(tmp_path, doc)
        assert main(["corrector", "--config", path]) == 0
        assert "ratio" in capsys.readouterr().out

        summary = json.loads((out / "summary.json").read_text())
        assert summary["p1"] == 0.0
        lines = (out / "surface_p1.csv").read_text().splitlines()
        values = [float(line.split(",")[3]) for line in lines
                  if line and not line.startswith("#")
                  and not line.startswith("t,")]
        assert values and max(abs(v) for v in values) == 0.0
        assert (out / "corrector.csv").exists()
        assert json.loads((out / "corrector.json").read_text())["config_hash"]

    def test_corrector_solves_each_limit_surface_once(self, tmp_path,
                                                      monkeypatch):
        """The corrector command marches P0 and P1 once, in one stack."""
        marches = []
        steps = hjb._Marcher.steps

        def counted(marcher):
            # Named by the builder of the march's explicit part.
            marches.append(marcher.explicit.__qualname__.split(".")[0])
            return steps(marcher)

        monkeypatch.setattr(hjb._Marcher, "steps", counted)
        doc = base_doc(tmp_path / "out")
        doc["corrector"] = {"point": [100.0, -1.0], "deltas": [0.16, 0.36],
                            "noise_floor": 0.0}
        assert main(["corrector", "--config", write_doc(tmp_path, doc)]) == 0
        # The delta march may run in a forked child, out of sight.
        limit_marches = sorted(m for m in marches if m != "_full_explicit")
        assert limit_marches == ["_corrector_march"]


class TestSimulateCommand:
    def test_simulate_writes_paths_and_freezes_v_at_delta_zero(
            self, tmp_path, capsys):
        """With delta = 0 the exported factor column is constant."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["simulate"] = {"x0": 100.0, "v0": -1.0, "q": 0.15,
                           "n_paths": 200, "n_steps": 16,
                           "max_csv_paths": 10}
        path = write_doc(tmp_path, doc)
        assert main(["simulate", "--config", path,
                     "--set", "model.delta=0.0"]) == 0
        assert "simulated 200 paths" in capsys.readouterr().out

        lines = (out / "paths.csv").read_text().splitlines()
        headers = [line for line in lines if line.startswith("#")]
        assert any(line.startswith("# config_hash=") for line in headers)
        assert "# seed=7" in headers
        rows = [line for line in lines
                if line and not line.startswith("#")][1:]
        assert len(rows) == 10 * 17
        v_values = {row.split(",")[4] for row in rows}
        assert v_values == {"-1.0"}

    def test_simulate_rerun_identical_and_seed_override(self, tmp_path):
        """Reruns are byte-identical; --seed changes the draw."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["simulate"] = {"x0": 100.0, "v0": -1.0, "q": 0.15,
                           "n_paths": 50, "n_steps": 8, "max_csv_paths": 5}
        path = write_doc(tmp_path, doc)
        assert main(["simulate", "--config", path]) == 0
        first = (out / "paths.csv").read_bytes()
        assert main(["simulate", "--config", path]) == 0
        assert (out / "paths.csv").read_bytes() == first
        assert main(["simulate", "--config", path, "--seed", "8"]) == 0
        assert (out / "paths.csv").read_bytes() != first

    def test_negative_seed_is_refused_before_output(self, tmp_path, capsys):
        """``--seed -3`` is a config error naming the seed, and no output
        directory is made."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["simulate"] = {"x0": 100.0, "v0": -1.0, "q": 0.15,
                           "n_paths": 50, "n_steps": 8}
        path = write_doc(tmp_path, doc)
        assert main(["simulate", "--config", path, "--seed", "-3",
                     "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("n_paths, max_csv_paths", [
        (9000, 100), (9000, 4600), (9000, None), (50, 50), (50, 60)])
    def test_artifacts_equal_those_of_the_whole_batch(
            self, tmp_path, monkeypatch, n_paths, max_csv_paths):
        """Only the written paths and the terminal states are kept, and
        the artifacts are the bytes the whole ``simulate_paths`` batch
        gave: past numpy's 8,192-element reduction blocks, across the two
        thread chunks (4,500 paths each) and with every path written."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["simulate"] = {"x0": 100.0, "v0": -1.0, "q": 0.15,
                           "n_paths": n_paths, "n_steps": 6,
                           "max_csv_paths": max_csv_paths}
        path = write_doc(tmp_path, doc)
        names = ("paths.csv", "summary.json")
        assert main(["simulate", "--config", path]) == 0
        streamed = [(out / name).read_bytes() for name in names]

        def whole_batch(*args):
            batch = simulate_paths(*args[:-1])
            return batch, batch.x_paths[:, -1], batch.v_paths[:, -1]

        monkeypatch.setattr(cli, "_simulate", whole_batch)
        assert main(["simulate", "--config", path]) == 0
        assert streamed == [(out / name).read_bytes() for name in names]

    def test_peak_below_one_path_array(self, tmp_path, monkeypatch):
        """The in-process traced peak of the command stays below one
        ``(n_steps + 1, n_paths)`` float64 array."""
        n_paths, n_steps = 20000, 50
        monkeypatch.setattr(sde, "_CHUNK_CELLS", 4 * 1000 * n_steps)
        doc = base_doc(tmp_path / "out")
        doc["simulate"] = {"x0": 100.0, "v0": -1.0, "q": 0.15,
                           "n_paths": n_paths, "n_steps": n_steps}
        argv = ["simulate", "--config", write_doc(tmp_path, doc)]
        assert main(argv) == 0  # scipy loads at the first draw
        rc, peak = in_process_peak(main, argv)
        assert rc == 0
        assert peak < (n_steps + 1) * n_paths * 8


class TestCheck2bsdeCommand:
    def test_constant_payoff_has_zero_terminal_residual(self, tmp_path,
                                                        capsys):
        """A constant payoff reproduces itself exactly along every path."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["payoff"] = {"calls": [[100.0, 0.0]], "const": 5.0}
        doc["check2bsde"] = {"point": [100.0, -1.0], "n_paths": 300,
                             "n_steps": 16}
        path = write_doc(tmp_path, doc)
        assert main(["check2bsde", "--config", path]) == 0
        assert "terminal_residual_rms = 0.0" in capsys.readouterr().out

        report = json.loads((out / "bsde_report.json").read_text())
        assert report["terminal_residual_rms"] == 0.0
        assert report["config_hash"]
        assert report["surface"] == "full_delta"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["p_delta"] == pytest.approx(5.0, abs=1e-9)

    def test_all_paths_escaping_is_a_numerical_failure(self, tmp_path,
                                                       capsys):
        """Losing every path to the grid boundary exits with code 2."""
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["model"]["delta"] = 1.0
        doc["grid"].update(v_min=-0.55, v_max=-0.45, n_v=5)
        doc["check2bsde"] = {"point": [100.0, -0.5], "n_paths": 100,
                             "n_steps": 16}
        path = write_doc(tmp_path, doc)
        assert main(["check2bsde", "--config", path]) == 2
        assert "left the grid" in capsys.readouterr().err


    @pytest.mark.parametrize("surface", ["full_delta", "limit_p0"])
    def test_more_steps_than_the_step_count_solve_each_step(
            self, tmp_path, monkeypatch, surface):
        """The shipped check2bsde config at 256 path steps, twice its
        ``min_time_steps``: the automatic ``n_t`` resolves to 256, so the
        surface is kept at every path step."""
        grids = []
        for name in ("solve_hjb_2d", "solve_bsb_1d"):
            solve = getattr(cli, name)

            def recording(params, payoff, grid, *a, solve=solve, **kw):
                grids.append(grid)
                return solve(params, payoff, grid, *a, **kw)

            monkeypatch.setattr(cli, name, recording)
        root = pathlib.Path(__file__).resolve().parents[1]
        config = RunConfig.from_dict(load_config(root / "configs" / "check2bsde.json"))
        assert hjb.min_time_steps(config.model, config.grid) == 128
        assert main(["check2bsde", "--config",
                     str(root / "configs" / "check2bsde.json"),
                     "--out", str(tmp_path / "out"),
                     "--set", "check2bsde.n_steps=256",
                     "--set", "check2bsde.n_paths=2000",
                     "--set", f"check2bsde.surface={json.dumps(surface)}"]) == 0
        assert [g.n_t for g in grids] == [256]
        report = json.loads((tmp_path / "out" / "bsde_report.json").read_text())
        assert report["n_paths_used"] + report["n_paths_discarded"] == 2000

    @pytest.mark.parametrize("setting, message", [
        ("check2bsde.n_paths=0", "n_paths and n_steps must be positive"),
        ("check2bsde.n_steps=0", "n_paths and n_steps must be positive"),
        ("check2bsde.point=[200,-1]", "not inside the grid interior"),
        ("check2bsde.point=[100,-0.5]", "not inside the grid interior"),
    ])
    @pytest.mark.parametrize("surface", ["full_delta", "limit_p0"])
    def test_bad_run_is_refused_before_the_solve(
            self, tmp_path, capsys, monkeypatch, setting, message, surface):
        """A path or step count below one, or a point off the grid
        interior, exits 1 before any surface is solved."""
        solves = []
        for name in ("solve_hjb_2d", "solve_bsb_1d"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name, **kw: solves.append(name))
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["check2bsde"] = {"point": [100.0, -1.0], "n_paths": 100,
                             "n_steps": 16, "surface": surface}
        path = write_doc(tmp_path, doc)
        assert main(["check2bsde", "--config", path, "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert solves == []
        assert not out.exists()


def check2bsde_artifacts(doc, fork):
    """``(exit code, bsde_report.json and summary.json bytes, forks)`` of
    the check2bsde command on ``doc``, forked or in-process."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # The same relative out_dir every run, so the config hash is too.
        mp.chdir(tmp)
        path = write_doc(pathlib.Path(tmp), dict(doc, out_dir="out"))
        rc, n_forks = forked(fork, main, ["check2bsde", "--config", path])
        out = pathlib.Path(tmp, "out")
        artifacts = [(out / name).read_bytes() if out.exists() else None
                     for name in ("bsde_report.json", "summary.json")]
    return rc, artifacts, n_forks


def check2bsde_doc(surface="full_delta", n_paths=300, n_steps=16, seed=7):
    doc = base_doc("out")
    doc["seed"] = seed
    doc["check2bsde"] = {"point": [100.0, -1.0], "n_paths": n_paths,
                         "n_steps": n_steps, "surface": surface}
    return doc


class TestCheck2bsdeDrawAhead:
    """The check's path halves draw their own normals as they march: only
    the second half forks, after the solve."""

    @settings(max_examples=10, deadline=None)
    @given(n_paths=st.sampled_from([1, 2, 41]) | st.integers(1, 200),
           n_steps=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_forked_equals_in_process(self, n_paths, n_steps, seed):
        """On a full_delta surface the artifacts are the same bytes forked
        and in-process."""
        doc = check2bsde_doc(n_paths=n_paths, n_steps=n_steps, seed=seed)
        runs = []
        for fork in (True, False):
            rc, artifacts, n_forks = check2bsde_artifacts(doc, fork)
            assert n_forks == fork * (n_paths >= 2)
            runs.append((rc, artifacts))
        assert_no_children()
        assert runs[0][0] in (0, 2)
        assert runs[0] == runs[1]

    def test_killed_half_is_redone_in_process(self, monkeypatch):
        """A path half SIGKILLed halfway through its march is redone
        in-process, with the in-process artifacts."""
        doc = check2bsde_doc(n_paths=3000, n_steps=24)
        want = check2bsde_artifacts(doc, fork=False)[:2]
        parent, reads = os.getpid(), []
        bilinear_read = bsde._bilinear_read

        def dying(*args):
            reads.append(1)
            if os.getpid() != parent and len(reads) == 40:
                os.kill(os.getpid(), signal.SIGKILL)
            return bilinear_read(*args)

        monkeypatch.setattr(bsde, "_bilinear_read", dying)
        rc, artifacts, n_forks = check2bsde_artifacts(doc, fork=True)
        assert n_forks == 1
        assert_no_children()
        assert (rc, artifacts) == want
        assert rc == 0

    @pytest.mark.parametrize("surface, want_forks", [("full_delta", 1),
                                                     ("limit_p0", 1)])
    def test_forks(self, surface, want_forks):
        """A check on either surface forks one path half."""
        rc, _, n_forks = check2bsde_artifacts(
            check2bsde_doc(surface, n_paths=3000, n_steps=24), fork=True)
        assert rc == 0
        assert n_forks == want_forks
        assert_no_children()

    def test_stability_failure_leaves_no_child(self, capsys):
        """A solve refused by the stability gate exits 2 before any child
        forks."""
        doc = check2bsde_doc(n_paths=3000, n_steps=24)
        doc["grid"]["n_t"] = 10
        rc, _, n_forks = check2bsde_artifacts(doc, fork=True)
        assert (rc, n_forks) == (2, 0)
        assert "stability bound" in capsys.readouterr().err
        assert_no_children()

    def test_non_finite_solve_leaves_no_child(self, monkeypatch, capsys):
        """A solve that turns non-finite exits 2 before any child forks."""
        def failing_solve(*args, **kwargs):
            raise NonFiniteError("NaN at step 3", time_index=3)

        monkeypatch.setattr(cli, "solve_hjb_2d", failing_solve)
        rc, _, n_forks = check2bsde_artifacts(
            check2bsde_doc(n_paths=3000, n_steps=24), fork=True)
        assert (rc, n_forks) == (2, 0)
        assert "NaN at step 3" in capsys.readouterr().err
        assert_no_children()


class TestOutputDirectory:
    @pytest.mark.parametrize("command, block, setting, message", [
        ("simulate", {"x0": 100.0, "v0": -1.0, "q": 0.15, "n_paths": 50,
                      "n_steps": 8},
         "simulate.x0=NaN", "initial state must be finite"),
        ("price", {"point": [100.0, -1.0]},
         "price.point=[500,-1]", "outside the grid"),
        ("sweep", {"point": [100.0, -1.0], "deltas": [0.2, 0.5]},
         "sweep.deltas=[0.2,0.2]", "deltas must be distinct"),
    ])
    def test_failed_command_leaves_no_directory(
            self, tmp_path, capsys, command, block, setting, message):
        """A command refused after the config parsed exits 1 and leaves
        neither its output directory nor the parents it made."""
        out = tmp_path / "new" / "out"
        doc = base_doc(out)
        doc[command] = block
        path = write_doc(tmp_path, doc)
        assert main([command, "--config", path, "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_existing_directory_is_kept(self, tmp_path, capsys):
        """A failed command leaves a directory that existed before it,
        empty or not, as it was."""
        doc = base_doc(tmp_path / "out")
        path = write_doc(tmp_path, doc)
        for out in (tmp_path / "empty", tmp_path / "full"):
            out.mkdir()
        (tmp_path / "full" / "keep.txt").write_text("kept")
        for out in (tmp_path / "empty", tmp_path / "full"):
            assert main(["price", "--config", path, "--out", str(out),
                         "--set", "price.point=[500,-1]"]) == 1
        assert "outside the grid" in capsys.readouterr().err
        assert list((tmp_path / "empty").iterdir()) == []
        assert [p.name for p in (tmp_path / "full").iterdir()] == ["keep.txt"]


class TestModuleEntryPoint:
    def test_python_dash_m_runs_a_subcommand(self, tmp_path):
        """``python -m uvpricer`` runs the CLI from a source checkout."""
        root = pathlib.Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        result = subprocess.run(
            [sys.executable, "-m", "uvpricer", "price", "--config",
             str(root / "configs" / "quickstart.json"), "--out",
             str(tmp_path / "out")],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "summary.json").is_file()
