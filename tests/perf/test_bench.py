"""Tests of the core microbenchmark harness (``repro.perf.bench``)."""

from __future__ import annotations

import json

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def quick_report():
    """One tiny real benchmark run, shared by the whole module."""
    return bench.run_benchmark(
        workloads=["129.compress"], length=3_000, warmup=0, repeat=2)


def test_report_shape(quick_report):
    r = quick_report
    assert r["schema"] == bench.SCHEMA
    assert r["config"] == bench.FIG9_CONFIG
    assert len(r["workloads"]) == 1
    entry = r["workloads"][0]
    assert entry["workload"] == "129.compress"
    assert entry["instructions"] == 3_000
    for side in ("optimized", "reference"):
        stats = entry[side]
        assert stats["best_ns"] > 0
        assert stats["best_ns"] <= stats["mean_ns"] or stats["stdev_ns"] == 0
        assert stats["kips"] > 0
    assert entry["speedup"] > 0
    agg = r["aggregate"]
    assert agg["instructions"] == 3_000
    assert agg["kips"] > 0
    assert agg["speedup_vs_reference"] == entry["speedup"]
    assert agg["speedup_geomean"] == pytest.approx(entry["speedup"])


def test_no_compare_mode():
    r = bench.run_benchmark(workloads=["129.compress"], length=2_000,
                            warmup=0, repeat=1, compare=False)
    entry = r["workloads"][0]
    assert "reference" not in entry
    assert "speedup" not in entry
    assert "speedup_vs_reference" not in r["aggregate"]


def test_write_and_load_roundtrip(quick_report, tmp_path):
    path = tmp_path / "BENCH_core.json"
    bench.write_report(quick_report, str(path))
    loaded = bench.load_report(str(path))
    assert loaded == json.loads(json.dumps(quick_report))


def test_check_regression_passes_against_itself(quick_report):
    assert bench.check_regression(quick_report, quick_report) == []


def test_check_regression_detects_slowdown(quick_report):
    slow = json.loads(json.dumps(quick_report))
    slow["aggregate"]["kips"] = quick_report["aggregate"]["kips"] / 2
    failures = bench.check_regression(slow, quick_report, tolerance=0.20)
    assert failures and "regressed" in failures[0]


def test_check_regression_tolerates_small_dip(quick_report):
    dip = json.loads(json.dumps(quick_report))
    dip["aggregate"]["kips"] = quick_report["aggregate"]["kips"] * 0.9
    assert bench.check_regression(dip, quick_report, tolerance=0.20) == []


def test_check_regression_rejects_malformed():
    assert bench.check_regression({}, {"aggregate": {"kips": 1.0}})
    assert bench.check_regression({"aggregate": {"kips": 1.0}}, {})


def test_trimmed_mean_drops_outliers():
    # 8 samples: the top and bottom quarter (2 each) are trimmed, so
    # one wild outlier cannot move the estimate.
    assert bench.trimmed_mean([100, 101, 99, 100, 102, 98, 5000, 1]) == 100
    # Fewer than four samples: nothing to trim, plain mean.
    assert bench.trimmed_mean([10, 20, 30]) == 20
    assert bench.trimmed_mean([7]) == 7


def test_report_carries_trimmed_stats(quick_report):
    stats = quick_report["workloads"][0]["optimized"]
    assert stats["trimmed_mean_ns"] >= stats["best_ns"]
    assert 0 < stats["trimmed_kips"] <= stats["kips"]
    assert quick_report["aggregate"]["trimmed_kips"] > 0


def test_min_repeat_raises_round_floor():
    r = bench.run_benchmark(workloads=["129.compress"], length=2_000,
                            warmup=0, repeat=1, compare=False,
                            min_repeat=4)
    assert r["repeat"] == 4


def test_replay_lanes_and_regression_gate():
    r = bench.run_benchmark(workloads=["129.compress"], length=3_000,
                            warmup=1, repeat=2, compare=False,
                            replay=True)
    entry = r["replay"]["workloads"][0]
    for lane in ("execution_driven", "replay", "replay_fast"):
        assert entry[lane]["best_ns"] > 0
        assert entry[lane]["kips"] > 0
    agg = r["replay"]["aggregate"]
    assert agg["replay_kips"] > 0 and agg["replay_fast_kips"] > 0
    assert bench.check_regression(r, r) == []
    # A fast-path-only collapse is caught even when the execution lane
    # and the plain replay lane hold.
    slow = json.loads(json.dumps(r))
    slow["replay"]["aggregate"]["replay_fast_kips"] = (
        agg["replay_fast_kips"] / 10)
    failures = bench.check_regression(slow, r, tolerance=0.20)
    assert failures and "replay_fast" in failures[0]


def test_vm_lane_and_regression_gate():
    r = bench.run_benchmark(workloads=["129.compress"], length=2_000,
                            warmup=0, repeat=1, compare=False, vm=True)
    entries = r["vm"]["workloads"]
    assert len(entries) == 8
    for entry in entries:
        assert entry["instructions"] == 2_000
        assert entry["machine"]["kips"] > 0
        assert entry["reference"]["kips"] > 0
    agg = r["vm"]["aggregate"]
    assert agg["instructions"] == 16_000
    assert agg["ratio"] > 1.0
    assert "vm aggregate" in bench.format_report(r)
    assert bench.check_regression(r, r) == []
    slow = json.loads(json.dumps(r))
    slow["vm"]["aggregate"]["kips"] = agg["kips"] / 10
    failures = bench.check_regression(slow, r, tolerance=0.20)
    assert failures and failures[0].startswith("vm throughput")
    # A baseline without the lane does not gate it.
    del slow["vm"]
    assert bench.check_regression(r, slow) == []


def test_format_report_renders(quick_report):
    text = bench.format_report(quick_report)
    assert "129.compress" in text
    assert "speedup vs reference" in text


def test_profile_run_returns_stats_table():
    table = bench.profile_run("129.compress", length=2_000, limit=5)
    assert "cumulative" in table or "function calls" in table


def test_cli_perf_subcommand(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_core.json"
    code = main(["perf", "--workloads", "129.compress",
                 "--length", "2000", "--warmup", "0", "--repeat", "1",
                 "--output", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "129.compress" in captured.out
    report = json.loads(out.read_text())
    assert report["schema"] == bench.SCHEMA
    # --check against the report we just wrote passes (same machine, and
    # noise is far below the 20% gate at these lengths... usually; use a
    # generous tolerance so the test is not flaky).
    code = main(["perf", "--workloads", "129.compress",
                 "--length", "2000", "--warmup", "0", "--repeat", "1",
                 "--check", str(out), "--tolerance", "0.9"])
    assert code == 0
