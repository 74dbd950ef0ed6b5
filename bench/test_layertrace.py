"""Tests of the benchmark's layer trace and work counters.

    PYTHONPATH=src python3 -m pytest -q bench/test_layertrace.py

Each workload runs traced twice on the same seed (about a minute in all).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import ghostlet.experiments as experiments  # noqa: E402
import ghostlet.transforms as transforms  # noqa: E402
from layertrace import LAYERS, Tracer, _axis_entries, metric_names  # noqa: E402
from run import END_TO_END, TRACE_TOTALS  # noqa: E402
from workloads import WORKLOADS, run_iteration  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """workload -> (iteration, layer metrics) for two traced runs, seed 0."""
    out = {}
    for name, workload in WORKLOADS.items():
        runs = []
        for _ in range(2):
            with Tracer() as tracer:
                it = run_iteration(workload, 0, tmp_path_factory.mktemp(name), experiments)
            assert it.ok, it.failures
            runs.append((it, tracer.metrics()))
        out[name] = runs
    return out


def test_counters_repeat_exactly(traced):
    counts = [name for name, unit in metric_names().items() if unit == "count"]
    counts += ["reporting.bytes", "grids.interpolate.distinct_field_ratio"]
    for name, ((it1, m1), (it2, m2)) in traced.items():
        assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}, name
        assert it1.metrics == it2.metrics, name


def test_call_counts(traced):
    calls = {name: runs[0][1] for name, runs in traced.items()}
    assert calls["direct-finite"]["transforms.forward_s.calls"] == 21
    assert calls["slice-ghosts"]["transforms.forward_s.calls"] == 1
    assert calls["mc-recon"]["transforms.forward_s.calls"] == 0
    assert calls["direct-finite"]["grids.interpolate.calls"] == 27
    assert calls["direct-finite"]["grids.interpolate.distinct_field_ratio"] == 8 / 27
    assert calls["mc-recon"]["grids.interpolate.points"] == 1_000_000
    assert calls["mc-recon"]["fourier.calls"] == 0
    assert calls["mc-recon"]["profiles.dawson_derivative.calls"] == 145


def test_traced_load_matches_workload_rationale(traced):
    """Each workload loads the layers it was chosen for."""
    def share(name, *keys):
        it, m = traced[name][0]
        return sum(m[k] for k in keys) / it.seconds

    assert share("slice-ghosts", "fourier.self_s") >= 0.2
    assert share("mc-recon", "experiments.self_s", "profiles.self_s") >= 0.8
    assert share("direct-finite", "transforms.forward_s.s", "finite_models.self_s",
                 "grids.interpolate.s") >= 0.7


def test_self_times_cover_the_run(traced):
    for name, runs in traced.items():
        it, m = runs[0]
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert 0.95 * it.seconds <= total <= it.seconds, name


def test_tracer_restores_originals():
    forward_s = transforms.forward_s
    with Tracer():
        assert transforms.forward_s is not forward_s
        assert experiments.forward_s is transforms.forward_s
    assert transforms.forward_s is forward_s
    assert experiments.forward_s is forward_s


def test_axis_entries():
    assert _axis_entries((3,), (5,)) == 15
    # axis 0: 3->5 over 7 columns; axis 1: 7->2 over the 5 new rows
    assert _axis_entries((3, 7), (5, 2)) == 3 * 5 * 7 + 7 * 2 * 5


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**metric_names(),
                                                                  **TRACE_TOTALS}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
