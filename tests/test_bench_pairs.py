"""Tests for the summary arithmetic of ``scripts/bench_pairs.py``."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(wall_s, peak_rss_mb):
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


# (parent, change) readings of wall_s and peak_rss_mb in five pairs.
WALL = [(0.30, 0.27), (0.31, 0.28), (0.29, 0.29), (0.33, 0.30), (0.28, 0.26)]
RSS = [(58.5, 58.6), (58.7, 58.7), (58.6, 58.5), (58.6, 58.6), (58.8, 58.9)]


def canned_pairs(traced=False):
    pairs = []
    for i, ((wp, wc), (rp, rc)) in enumerate(zip(WALL, RSS)):
        sides = {"parent": result(wp, rp), "change": result(wc, rc)}
        if traced:
            sides = {side: {"detail": {"seed": i}, "result": line}
                     for side, line in sides.items()}
        pairs.append({"seed": 100 + i, "pair": i + 1,
                      "first": "parent" if i % 2 == 0 else "change", **sides})
    return pairs


class TestSummarize:
    @pytest.mark.parametrize("traced", [False, True])
    def test_spread_and_counts(self, traced):
        """Quartiles by the exclusive method, extremes, lower and tied pairs."""
        summary = bench_pairs.summarize(canned_pairs(traced))
        assert list(summary) == ["wall_s", "peak_rss_mb"]
        wall = summary["wall_s"]
        assert wall["parent"] == pytest.approx(
            {"q1": 0.285, "median": 0.30, "q3": 0.32, "min": 0.28, "max": 0.33})
        assert wall["change"]["median"] == 0.28
        assert wall["change"]["q1"] == pytest.approx(0.265)
        assert wall["change"]["q3"] == pytest.approx(0.295)
        assert (wall["pairs"], wall["change_lower"], wall["ties"]) == (5, 4, 1)
        rss = summary["peak_rss_mb"]
        assert (rss["change_lower"], rss["ties"]) == (1, 2)
        assert rss["change"]["q1"] == statistics.quantiles(
            [c for _, c in RSS], n=4)[0]

    def test_one_pair_spreads_to_its_reading(self):
        """A single pair's quartiles are its own reading."""
        wall = bench_pairs.summarize(canned_pairs()[:1])["wall_s"]
        assert wall["parent"] == dict.fromkeys(
            ("q1", "median", "q3", "min", "max"), 0.30)
        assert (wall["pairs"], wall["change_lower"], wall["ties"]) == (1, 1, 0)


def test_operation_medians_join_the_summary():
    """Each side's median time per operation is a reading of its own,
    summarized like the metrics."""
    pairs = canned_pairs()
    # (parent, change) op_times_s of two operations in each pair's run.
    ops = [({"solve": [0.30, 0.10, 0.20], "paths": [0.5, 0.5]},
            {"solve": [0.15, 0.25, 0.05], "paths": [0.4, 0.6, 0.7]}),
           ({"solve": [0.2], "paths": [0.5]},
            {"solve": [0.3], "paths": [0.5]})] * 2 + [
           ({"solve": [0.4], "paths": [0.9]},
            {"solve": [0.1], "paths": [0.8]})]
    for pair, sides in zip(pairs, ops):
        for side, times in zip(bench_pairs.SIDES, sides):
            pair[side] = {"result": pair[side],
                          "op_s": bench_pairs.op_medians({"op_times_s": times})}
    assert pairs[0]["parent"]["op_s"] == {"solve": 0.20, "paths": 0.5}
    assert pairs[0]["change"]["op_s"] == {"solve": 0.15, "paths": 0.6}
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == ["wall_s", "peak_rss_mb", "op_s.solve",
                             "op_s.paths"]
    solve = summary["op_s.solve"]
    assert solve["parent"]["median"] == 0.20
    assert solve["change"]["median"] == 0.15
    assert (solve["pairs"], solve["change_lower"], solve["ties"]) == (5, 3, 0)
    paths = summary["op_s.paths"]
    assert (paths["change_lower"], paths["ties"]) == (1, 2)
    assert summary["wall_s"] == bench_pairs.summarize(canned_pairs())["wall_s"]


def test_run_side_keeps_operation_medians(monkeypatch):
    """Untraced, a side keeps its result line and operation medians;
    traced, the detail line as well."""
    detail = {"op_times_s": {"solve": [0.3, 0.1, 0.2]}, "seed": 3}
    stdout = "\n".join([json.dumps(detail), json.dumps(result(0.3, 58.5))])

    def fake_run(args, **kwargs):
        return subprocess.CompletedProcess(args, 0, stdout=stdout)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    side = bench_pairs.run_side(Path("."), "surface_mc", 3, 25, trace=0)
    assert side == {"result": result(0.3, 58.5), "op_s": {"solve": 0.2}}
    traced = bench_pairs.run_side(Path("."), "surface_mc", 3, 25, trace=1)
    assert traced == dict(side, detail=detail)


def test_result_lines_are_the_last_two():
    """The detail and result lines are the last two non-blank lines."""
    stdout = "\n".join(["progress", json.dumps({"seed": 7}),
                        json.dumps(result(0.3, 58.5)), ""])
    detail, line = bench_pairs.result_lines(stdout)
    assert detail == {"seed": 7}
    assert line == result(0.3, 58.5)


def test_run_seconds_come_from_both_checkouts(tmp_path):
    """Each checkout's BENCHMARK.json sets the run length; they must agree."""
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout, seconds in zip(checkouts.values(), (25, 25)):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": seconds}))
    assert bench_pairs.run_seconds(checkouts) == 25
    (checkouts["change"] / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 30}))
    with pytest.raises(ValueError, match="run_seconds differ"):
        bench_pairs.run_seconds(checkouts)
