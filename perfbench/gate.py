"""Correctness gate: committed expectations and the digests that check them.

Every point the benchmark delivers is checked against ``expected.json``,
which lives beside this file.  The expectations are never produced by the
code under test at check time:

* solo results (synthetic and mini-C) come from the frozen reference core,
  :class:`repro.perf.reference.ReferenceProcessor`;
* every generated or VM-produced trace is pinned by the SHA-256 of its
  :func:`repro.trace.format.encode_trace` bytes;
* two-program mixes have no reference core, so their digests are recorded
  once by :func:`repro.core.multicore.run_mix`; recording first asserts
  that a one-program mix equals the reference solo result for every
  program, which ties the mix loop to the reference.

Regenerate (about a minute; needs ``src`` on the path, done below)::

    python3 perfbench/gate.py

A digest covers configuration name, workload name, cycles, instruction
count and the full counter dictionary, so it is as strict as
:func:`repro.perf.golden.diff_results`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, Iterable, Mapping

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Synthetic trace length for ``synth_replay`` and ``served_sweep``.
#: ``trace_for`` never builds a synthetic trace shorter than 10 000
#: instructions, so the served points at ``SERVED_SCALE`` use exactly the
#: traces ``synth_replay`` captures, and share their expectations.
SYNTH_LENGTH = 10_000
GEN_SEED = 1
SERVED_SCALE = 0.01
MIX_CONFIG = "2+2:opt"
MINIC_CONFIG = "2+2:opt"
#: VM instruction budget per mini-C point.
MINIC_BUDGET = 8_000
OPT_LEVELS = (0, 2)


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(config: str, workload: str, cycles: int, instructions: int,
            counters: Mapping[str, int]) -> Dict[str, Any]:
    return {"config": config, "workload": workload, "cycles": cycles,
            "instructions": instructions, "counters": dict(counters)}


def result_digest(result) -> str:
    """Digest of a :class:`repro.core.metrics.SimResult`."""
    return _digest(_record(result.config_name, result.workload_name,
                           result.cycles, result.instructions,
                           result.counters.as_dict()))


def payload_digest(payload: Mapping[str, Any]) -> str:
    """Digest of a ``sim`` result as the job service renders it in JSON."""
    return _digest(_record(payload["config"], payload["workload"],
                           payload["cycles"], payload["instructions"],
                           payload["counters"]))


def mix_digest(results: Iterable) -> str:
    """Digest of the per-program results of one mix, in core order."""
    return _digest([_record(r.config_name, r.workload_name, r.cycles,
                            r.instructions, r.counters.as_dict())
                    for r in results])


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pair_name(a: str, b: str) -> str:
    return f"{a}+{b}"


def minic_variant(program: str, level: int) -> str:
    return f"{program}@O{level}"


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> Dict[str, Any]:
    """Recompute every expectation from the reference core."""
    from repro.core.multicore import run_mix
    from repro.experiments.common import trace_for
    from repro.lang import CompilerOptions, compile_source
    from repro.perf.golden import GOLDEN_CONFIGS, golden_config
    from repro.perf.reference import ReferenceProcessor
    from repro.trace.format import encode_trace
    from repro.vm.machine import Machine
    from repro.workloads.builder import build_trace_uncached
    from repro.workloads.minic import MINIC_PROGRAMS
    from repro.workloads.spec import ALL_PROGRAMS

    synthetic: Dict[str, Any] = {}
    streams = {}
    for name in ALL_PROGRAMS:
        trace = build_trace_uncached(name, SYNTH_LENGTH, GEN_SEED)
        served = trace_for(name, SERVED_SCALE, GEN_SEED)
        sha = bytes_digest(encode_trace(trace))
        if len(served) != SYNTH_LENGTH or bytes_digest(
                encode_trace(served)) != sha:
            raise AssertionError(
                f"{name}: served trace at scale {SERVED_SCALE} is not the "
                f"{SYNTH_LENGTH}-instruction synthetic trace")
        results = {}
        for notation, _kwargs in GOLDEN_CONFIGS:
            ref = ReferenceProcessor(golden_config(notation)).run(
                trace.insts, name)
            results[notation] = result_digest(ref)
        solo = run_mix([(name, trace.insts)], golden_config(MIX_CONFIG))
        if result_digest(solo[0]) != results[MIX_CONFIG]:
            raise AssertionError(
                f"{name}: one-program run_mix differs from the reference "
                f"solo result on {MIX_CONFIG}")
        synthetic[name] = {"trace_sha256": sha, "results": results}
        streams[name] = trace.insts
        print(f"synthetic {name}", file=sys.stderr)

    pairs = {}
    mix_config = golden_config(MIX_CONFIG)
    for i, a in enumerate(ALL_PROGRAMS):
        for b in ALL_PROGRAMS[i + 1:]:
            for first, second in ((a, b), (b, a)):
                pairs[pair_name(first, second)] = mix_digest(run_mix(
                    [(first, streams[first]), (second, streams[second])],
                    mix_config))
    print(f"mix pairs: {len(pairs)}", file=sys.stderr)

    minic = {}
    minic_config = golden_config(MINIC_CONFIG)
    for program, (source, _) in MINIC_PROGRAMS.items():
        for level in OPT_LEVELS:
            variant = minic_variant(program, level)
            image = compile_source(source, CompilerOptions(
                source_name=variant, opt_level=level))
            vm = Machine(image, trace=True)
            vm.run(max_instructions=MINIC_BUDGET)
            trace = vm.trace
            trace.name = variant
            ref = ReferenceProcessor(minic_config).run(trace.insts, variant)
            minic[variant] = {"trace_sha256": bytes_digest(
                encode_trace(trace)), "result": result_digest(ref)}
    print(f"mini-C variants: {len(minic)}", file=sys.stderr)

    return {
        "format": 1,
        "synthetic": {"length": SYNTH_LENGTH, "gen_seed": GEN_SEED,
                      "served_scale": SERVED_SCALE, "programs": synthetic},
        "mix": {"config": MIX_CONFIG, "pairs": pairs},
        "minic": {"budget": MINIC_BUDGET, "config": MINIC_CONFIG,
                  "variants": minic},
    }


def main() -> int:
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    expected = regenerate()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
