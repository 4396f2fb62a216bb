"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run each workload for one repetition at the default seed,
through the same command the benchmark is run with, so they take about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(key):
    return [m["name"] for m in SPEC[key]]


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8, 12] overhangs b and is clipped to b's end when b's self time is taken.
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 8.0, 12.0, 3],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 4.0, 8.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == _names("workloads")
    assert list(workloads.SETUP) == _names("workloads")
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == tracing.LAYER_METRICS
    empty = tracing.layer_metrics(tracing.Tracer(), 1.0, 1.0, 0.0, [])
    assert list(empty) == list(layer)
    e2e = workloads._e2e([1.0, 2.0], [1.0, 2.0], 1.0, workloads.Tally())["metrics"]
    assert set(e2e) | {"peak_rss_mb", "setup_s"} == set(_names("end_to_end"))


def test_tracer_restores_wrapped_names():
    import filterlab.harness

    original = filterlab.harness.nvmf_update
    tracer = tracing.Tracer()
    tracer.install(tracing.build_table(workloads.ADAPTERS)
                   + (("filterlab.harness", "no_such_name", "x", None),))
    assert filterlab.harness.nvmf_update is not original
    assert tracer.missing == ["filterlab.harness.no_such_name"]
    tracer.restore()
    assert filterlab.harness.nvmf_update is original


def _run(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", _names("workloads"))
def test_smoke_run_passes_its_output_check(workload):
    proc, result = _run("--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc, result = _run("--workload", "track_stream", "--seed",
                        str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    assert list(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["nvmf.update.calls"]["value"] > 0


def test_failed_check_fails_every_operation_it_covers():
    tally = workloads.Tally()
    workloads.check_calibrate(0, "alpha=1.5\nbeta=50\nresidual=1e-6\n",
                              workloads.DEFAULT_SEED, 463, tally)
    assert tally.problems and (tally.attempted, tally.failed) == (463, 463)
