"""Self-test of the benchmark harness at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py

For each workload it checks that every metric ``BENCHMARK.json`` names is
reported with its unit, that spans nest (a parent equals its self time
plus its children within :data:`spans.NEST_TOLERANCE`), that layer times
plus unattributed time add up to point time, that untraced rounds run
with no wrapper installed, and that a seed held out of tuning passes the
correctness gate.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = run.WORKLOADS
HELD_OUT_SEED = 9001
#: Layer times plus unattributed time must equal point time to this
#: share (they differ only by floating-point rounding).
ACCOUNTING_TOLERANCE = 1e-6


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


@pytest.fixture
def untraced_rounds_unwrapped(monkeypatch):
    """Fail if any untraced round runs with a wrapper installed."""
    originals = spans.current_targets()
    installs = []
    real_round = run.run_round
    real_install = spans.Tracer.install

    def checked_round(workload, phase, tracer=None):
        if tracer is None:
            current = spans.current_targets()
            assert all(a is b for a, b in zip(current, originals))
        real_round(workload, phase, tracer)

    def counted_install(self):
        installs.append(self)
        real_install(self)

    monkeypatch.setattr(run, "run_round", checked_round)
    monkeypatch.setattr(spans.Tracer, "install", counted_install)
    yield installs
    assert all(a is b for a, b in zip(spans.current_targets(), originals))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics(workload, untraced_rounds_unwrapped):
    result = run.run(workload, seed=1, seconds=0, trace=0, small=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert not untraced_rounds_unwrapped
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_account_for_point_time(workload,
                                               untraced_rounds_unwrapped):
    result = run.run(workload, seed=1, seconds=0, trace=1, small=True)
    assert result["correct"] and result["failed"] == 0
    assert len(untraced_rounds_unwrapped) == 1
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _declared(
        "per_layer")

    tracer = result["tracer"]
    assert tracer.worst_nesting <= spans.NEST_TOLERANCE
    point_ms = metrics["bench.point_ms"]["value"]
    assert tracer.accounting_error_ms <= ACCOUNTING_TOLERANCE * point_ms
    span_metrics = [name for name, m in metrics.items()
                    if m["unit"] == "ms" and name != "bench.point_ms"
                    and name != "runtime.queue_wait_ms"]
    accounted = sum(metrics[name]["value"] for name in span_metrics)
    assert accounted == pytest.approx(point_ms, rel=ACCOUNTING_TOLERANCE)
    assert metrics["bench.tracing_overhead_ratio"]["value"] > 0
    if workload == "served_sweep":
        # Every served point's queue wait is measured, however the
        # scheduler thread races the submit handler.
        assert tracer.counts["runtime.queue_waits"] == tracer.points


def test_sim_cycles_repeat_exactly():
    first = run.run("synth_replay", seed=3, seconds=0, trace=1, small=True)
    second = run.run("synth_replay", seed=3, seconds=0, trace=1, small=True)
    cycles = [r["metrics"]["core.sim_cycles"]["value"]
              for r in (first, second)]
    assert cycles[0] > 0 and cycles[0] == cycles[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_gate(workload):
    result = run.run(workload, seed=HELD_OUT_SEED, seconds=0, trace=0,
                     small=True)
    assert result["correct"] and result["failed"] == 0
