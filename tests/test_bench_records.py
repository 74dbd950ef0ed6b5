"""Committed benchmark records (`BENCH_*.json` at the repository root).

Each record holds the final JSON line of `bench/run.py` for the parent and
the change on every pair of runs, with the seeds and a held-out seed, and a
summary of per-side medians and quartiles. A record stands for a claimed
speed-up, so it must parse, claim it on a workload and an end-to-end metric
that `BENCHMARK.json` declares, have at least ten pairs, and show both sides
correct on every run; its summary must be the one its runs give.
"""
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")


def test_some_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_a_benchmark_workload_and_metric(path):
    """A record claims a gain on a workload of `BENCHMARK.json`, in one of
    its end-to-end metrics."""
    record = json.loads(path.read_text())
    assert record["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert record["claim"]["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_ten_correct_pairs(path):
    record = json.loads(path.read_text())
    pairs = record["pairs"]
    seeds = [pair["seed"] for pair in pairs]
    assert len(pairs) >= 10 and len(set(seeds)) == len(seeds)
    assert record["held_out"]["seed"] not in seeds
    for run in pairs + [record["held_out"]]:
        for side in SIDES:
            line = run[side]
            assert line["correct"] is True and line["failed"] == 0, (run["seed"], side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_summary_matches_its_pairs(path):
    record = json.loads(path.read_text())
    for metric, summary in record["summary"].items():
        wins = 0
        for side in SIDES:
            values = [pair[side]["metrics"][metric]["value"] for pair in record["pairs"]]
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            assert summary[side] == pytest.approx({"median": median, "q1": q1, "q3": q3},
                                                  rel=1e-12), (metric, side)
        for pair in record["pairs"]:
            parent, change = (pair[side]["metrics"][metric]["value"] for side in SIDES)
            wins += change < parent
        assert summary["change_wins"] == wins, metric
