"""Tests of the benchmark itself, on a tiny config; run with

    python3 -m pytest bench -q
"""
import json
import re
import subprocess
import sys
import time

import pytest

import run
import spans
from workloads import ROOT, Workload, check_c4

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY_TRIALS = 4
TINY_SNRS = (-20.0, -15.0, -10.0)
TINY = {
    "system": {"n_subcarriers": 16, "cp_length": 8, "n_rx": 4, "n_pilots": 8,
               "snr_grid_db": list(TINY_SNRS), "n_trials": TINY_TRIALS},
    "scenario": {"n_paths": 6, "n_dt_paths": 3},
    "estimator": {"n_batch": 8},
}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def tiny_workload(config, physics=lambda rows: "ok") -> Workload:
    return Workload(name="tiny", cli=("nmse-sweep", "--methods", "ls,emdt"),
                    workers=1, config=config, outputs=("nmse.csv", "nmse.svg"),
                    rows=2 * len(TINY_SNRS), physics=physics)


@pytest.fixture(scope="module")
def traced_tiny(tiny_config, tmp_path_factory):
    """Per-layer metrics of one traced tiny nmse-sweep."""
    work = tmp_path_factory.mktemp("traced")
    bench = run.Bench(tiny_workload(tiny_config), seed=5,
                      deadline=time.perf_counter() + 120, directory=work)
    result = bench.run(traced=True)
    assert result.ok, result.error
    return result


def test_self_times_subtract_covered_child_intervals():
    tree = [["root", 0.0, 10.0, -1, False],
            ["a", 1.0, 4.0, 0, False],
            ["a.x", 2.0, 3.0, 1, False],
            ["b", 5.0, 9.0, 0, True],
            ["b.y", 4.5, 6.0, 3, False]]       # starts before its parent: clipped
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.5])


def test_self_times_sum_to_the_root_duration():
    child = [["cli.main", 1.0, 8.0, -1, False],
             ["estimators.project_estimate", 2.0, 5.0, 0, False],
             ["experiments.pool.wait", 6.0, 7.5, 0, False]]
    tree = spans.with_process_span(child, spawned=0.5, exited=9.0)
    metrics = spans.layer_metrics(tree, {}, 0)
    assert metrics["cli.self_s"] == pytest.approx(2.5)
    assert metrics["process.self_s"] == pytest.approx(1.5)
    assert spans.self_time_sum(metrics) == pytest.approx(8.5)
    assert metrics["trace.wall_s"] == pytest.approx(8.5)


def test_projection_flop_count():
    # dense pair on a batch of 50 16x256 blocks
    assert spans.projection_flops((50, 16, 256)) == 8 * 50 * (16 * 16 * 256 + 16 * 256 * 256)
    assert spans.projection_flops((4, 8)) == 8 * (4 * 4 * 8 + 4 * 8 * 8)


def test_traced_run_counts_and_partition(traced_tiny):
    layer = traced_tiny.layer
    # one chunk per SNR point, so one projection per SNR point
    assert layer["estimators.project_estimate.calls"] == len(TINY_SNRS)
    flops = len(TINY_SNRS) * spans.projection_flops((TINY_TRIALS, 4, 8))
    assert layer["estimators.project_estimate.gflops"] == pytest.approx(
        flops / layer["estimators.project_estimate.s"] / 1e9)
    assert layer["experiments.build_environment.calls"] == 1
    assert layer["trace.errors"] == 0
    assert layer["experiments.emit.bytes"] > 0
    assert spans.self_time_sum(layer) == pytest.approx(layer["trace.wall_s"], abs=1e-9)


def test_redraw_factor_counts_per_snr_redraws(traced_tiny):
    # pilots once (the site's paths are supplied); fading and noise per trial,
    # redrawn at every SNR point
    calls = 1 + len(TINY_SNRS) * 2 * TINY_TRIALS
    distinct = 1 + 2 * TINY_TRIALS
    assert traced_tiny.layer["streams.substream.calls"] == calls
    assert traced_tiny.layer["streams.redraw_factor"] == pytest.approx(calls / distinct)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == spans.PER_LAYER
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.match(name), name


def test_failing_output_check_raises_fail_frac(tiny_config, tmp_path):
    deadline = time.perf_counter() + 120
    good = run.Bench(tiny_workload(tiny_config), 5, deadline, tmp_path / "good")
    good.run()
    good.run()
    assert run.outcome(good.runs) == {"correct": True, "attempted": 2, "failed": 0}
    # the reference-config C4 check cannot hold on a 4x8 grid
    bad = run.Bench(tiny_workload(tiny_config, physics=check_c4), 5, deadline,
                    tmp_path / "bad")
    bad.run()
    result = run.outcome(bad.runs)
    assert result == {"correct": False, "attempted": 1, "failed": 1}
    assert run.fail_frac(result) == 1.0
    assert "C4" in bad.runs[0].error


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        (tmp_path / "bench" / name).write_bytes((ROOT / "bench" / name).read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pilot-c8",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
