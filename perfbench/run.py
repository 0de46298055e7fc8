"""The simulator's benchmark: one workload per run, one JSON line out.

Usage, from the repository root::

    python3 perfbench/run.py --workload synth_replay --seed 1 \\
        --seconds 12 --trace 0

A run repeats the workload's seeded plan in whole rounds until the points
have taken ``--seconds`` of host time.  ``--trace 0`` reports the
end-to-end metrics with no wrappers installed.  ``--trace 1`` alternates
untraced rounds with traced ones (see :mod:`spans`) until both together
reach ``--seconds``, and reports the per-layer metrics, each per round,
plus the traced to untraced time ratio.

Host times are scaled to a reference host speed by :mod:`hostspeed`.
Every delivered point is checked against ``expected.json`` (see
:mod:`gate`); a failed or wrong point makes the exit code non-zero.  The
last line of standard output is the result object; everything else goes
to standard error.
"""

from time import perf_counter

from hostspeed import NOMINAL_PROBE_S, probe

# Set-up time is scaled like point time, by probes on either side of it.
_START_PROBE = probe()
_STARTED = perf_counter()

import argparse  # noqa: E402 - the clock above times every import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("synth_replay", "minic_exec", "served_sweep")
#: Rounds continue past ``--seconds`` until this many points are in, so
#: that at least ten samples lie beyond p90.
MIN_POINTS = 110


class Phase:
    """What the untraced (or the traced) rounds of a run delivered.

    ``latencies`` and ``scaled_s`` are host times scaled to the reference
    host speed (see :mod:`hostspeed`); ``measured_s`` is raw.
    """

    def __init__(self):
        self.latencies: List[float] = []
        self.by_kind: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.instructions = 0
        self.measured_s = 0.0
        self.scaled_s = 0.0
        self.rounds = 0
        self.fixture_s: List[float] = []

    @property
    def slowdown(self) -> float:
        """Raw over scaled point time: the host's slowness in this phase."""
        return self.measured_s / self.scaled_s


def run_round(workload, phase: Phase, tracer=None) -> None:
    """Run one round of *workload*'s plan into *phase*.

    The host-speed probe runs between points; each point's latency is
    scaled by the mean of the probes just before and just after it.
    """
    from scenarios import Mismatch

    before = probe()
    try:
        started = perf_counter()
        points = workload.fixture()
        fixture_s = perf_counter() - started
        after = probe()
        phase.fixture_s.append(_scaled(fixture_s, before, after))
        before = after
        for point in points:
            error = None
            if tracer is not None:
                tracer.begin_point()
            t0 = perf_counter()
            try:
                outcome = point.run()
            except Exception:  # noqa: BLE001 - a failed point, counted
                error = traceback.format_exc()
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_point(t0, t1)
            after = probe()
            latency = _scaled(t1 - t0, before, after)
            before = after
            phase.measured_s += t1 - t0
            phase.scaled_s += latency
            phase.attempted += 1
            if error is None:
                try:
                    phase.instructions += point.check(outcome)
                except Mismatch as exc:
                    error = str(exc)
            if error is not None:
                phase.failed += 1
                print(f"FAILED {point.kind} {point.label}: {error}",
                      file=sys.stderr)
                continue
            phase.latencies.append(latency)
            phase.by_kind[point.kind].append(latency)
    finally:
        workload.teardown()
    phase.rounds += 1


def _scaled(seconds: float, probe_before: float, probe_after: float
            ) -> float:
    """*seconds* as on the reference host (see :mod:`hostspeed`)."""
    return seconds * NOMINAL_PROBE_S * 2 / (probe_before + probe_after)


def run_traced_round(workload, phase: Phase, tracer) -> None:
    tracer.install()
    try:
        run_round(workload, phase, tracer)
    finally:
        tracer.uninstall()


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metrics(values: Dict[str, tuple]) -> Dict[str, Dict]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def end_to_end(init_s: float, phase: Phase) -> Dict[str, Dict]:
    setup_s = init_s + statistics.median(phase.fixture_s)
    return _metrics({
        "setup_s": (setup_s, "s"),
        "points_per_s": (len(phase.latencies) / phase.scaled_s, "1/s"),
        "sim_kips": (phase.instructions / phase.scaled_s / 1e3, "kips"),
        "point_p50_ms": (_percentile(phase.latencies, 50) * 1e3, "ms"),
        "point_p90_ms": (_percentile(phase.latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    })


def per_layer(tracer, traced: Phase, base: Phase) -> Dict[str, Dict]:
    scale = 1.0 / traced.slowdown
    busy = tracer.busy_ms
    counts = tracer.counts
    calls = tracer.calls

    def per_round(value: float) -> float:
        return value / traced.rounds

    def ms(span: str) -> float:
        return per_round(busy[span]) * scale

    def kips(insts_key: str, span: str) -> float:
        return counts[insts_key] / (busy[span] * scale) if busy[span] else 0.0

    def ratio(hits: str, total: str) -> float:
        return counts[hits] / counts[total] if counts[total] else 0.0

    return _metrics({
        "workloads.generate.calls": (per_round(calls["workloads.generate"]),
                                     "count"),
        "workloads.generate.busy_ms": (ms("workloads.generate"), "ms"),
        "workloads.generate.kips": (
            kips("workloads.generate.insts", "workloads.generate"), "kips"),
        "lang.compile.calls": (per_round(calls["lang.compile"]), "count"),
        "lang.compile.busy_ms": (ms("lang.compile"), "ms"),
        "vm.run.busy_ms": (ms("vm.run"), "ms"),
        "vm.run.kips": (kips("vm.run.insts", "vm.run"), "kips"),
        "trace.capture.busy_ms": (ms("trace.capture"), "ms"),
        "trace.capture.bytes": (per_round(counts["trace.capture.bytes"]),
                                "bytes"),
        "trace.load.busy_ms": (ms("trace.load"), "ms"),
        "trace.load.memo_hit_ratio": (
            ratio("trace.load.memo_hits", "trace.load.memo_probes"),
            "ratio"),
        "core.run.calls": (per_round(calls["core.run"]), "count"),
        "core.run.busy_ms": (ms("core.run"), "ms"),
        "core.run.kips": (kips("core.run.insts", "core.run"), "kips"),
        "core.mix.busy_ms": (ms("core.mix"), "ms"),
        "core.mix.kips": (kips("core.mix.insts", "core.mix"), "kips"),
        "core.kernel_for.busy_ms": (ms("core.kernel_for"), "ms"),
        "core.sim_cycles": (per_round(counts["core.sim_cycles"]), "cycles"),
        "runtime.client.submit_ms": (ms("runtime.client.submit"), "ms"),
        "runtime.client.wait_ms": (ms("runtime.client.wait"), "ms"),
        "runtime.client.result_ms": (ms("runtime.client.result"), "ms"),
        "runtime.queue_wait_ms": (
            per_round(counts["runtime.queue_wait_s"]) * scale * 1e3, "ms"),
        "runtime.engine.run.busy_ms": (ms("runtime.engine.run"), "ms"),
        "runtime.engine.retries": (per_round(
            counts["runtime.engine.retries"]), "count"),
        "runtime.store.lookup.busy_ms": (ms("runtime.store.lookup"), "ms"),
        "runtime.store.hit_ratio": (
            ratio("runtime.store.hits", "runtime.store.lookups"), "ratio"),
        "runtime.store.write.busy_ms": (ms("runtime.store.write"), "ms"),
        "bench.unattributed_ms": (ms("bench.unattributed"), "ms"),
        "bench.point_ms": (per_round(tracer.point_ms) * scale, "ms"),
        "bench.points": (per_round(tracer.points), "count"),
        "bench.tracing_overhead_ratio": (traced.scaled_s / base.scaled_s,
                                         "ratio"),
    })


def _summary(label: str, phase: Phase) -> str:
    parts = [f"{label}: {phase.rounds} rounds, {phase.attempted} points "
             f"({phase.failed} failed), {phase.measured_s:.2f} s measured, "
             f"host slowdown {phase.slowdown:.3f}"]
    for kind, values in sorted(phase.by_kind.items()):
        parts.append(f"{kind} n={len(values)} "
                     f"median={statistics.median(values) * 1e3:.1f}ms")
    return "; ".join(parts)


def run(workload_name: str, seed: int, seconds: float, trace: int,
        small: bool = False) -> Dict:
    """Run one workload; returns the result object (not yet printed).

    *small* cuts the plan to a few points and runs a single round (the
    harness self-test).
    """
    min_points = 1 if small else MIN_POINTS
    import gate
    import scenarios
    import spans

    imported = probe()
    init_s = _scaled(perf_counter() - _STARTED, _START_PROBE, imported)
    started = perf_counter()
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    workload = scenarios.WORKLOADS[workload_name](
        seed, work, gate.load_expected(), small=small)
    base = Phase()
    phases = [base]
    try:
        workload.init()
        init_s += _scaled(perf_counter() - started, imported, probe())
        if trace:
            # Untraced and traced rounds alternate, so drift in host speed
            # weighs on both sides of the overhead ratio alike.
            tracer = spans.Tracer()
            traced = Phase()
            phases.append(traced)
            while (base.measured_s + traced.measured_s < seconds
                   or not traced.rounds):
                if base.rounds % 2:
                    run_traced_round(workload, traced, tracer)
                    run_round(workload, base)
                else:
                    run_round(workload, base)
                    run_traced_round(workload, traced, tracer)
        else:
            while base.measured_s < seconds or base.attempted < min_points:
                run_round(workload, base)
        for name, phase in zip(("untraced", "traced"), phases):
            print(_summary(f"{workload_name} ({name})", phase),
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed}
    if not all(p.latencies for p in phases):
        result["metrics"] = {}  # nothing delivered to measure
    elif trace:
        result["metrics"] = per_layer(tracer, traced, base)
        result["tracer"] = tracer
    else:
        result["metrics"] = end_to_end(init_s, base)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    result.pop("tracer", None)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
