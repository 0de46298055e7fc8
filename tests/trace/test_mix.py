"""Multi-programmed mixes: solo equivalence, interference, caching."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.multicore import run_mix
from repro.core.processor import Processor
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.runtime.engine import run_sim_jobs
from repro.runtime.job import MixJob
from repro.trace.mix import INTERFERENCE_COUNTERS, MixResult
from repro.workloads.builder import build_trace

MIX_DIGESTS = os.path.join(os.path.dirname(__file__), "mix_digests.json")


def test_one_program_mix_is_bit_identical(small_li_trace):
    """A 1-program mix must reproduce the solo run exactly — the shared
    hierarchy with one core attached is the solo hierarchy.  An empty
    trace finishes at cycle 0 either way."""
    for insts in (small_li_trace.insts, []):
        for name, _kwargs in GOLDEN_CONFIGS:
            config = golden_config(name)
            solo = Processor(config).run(insts, "130.li")
            (mixed,) = run_mix([("130.li", insts)], config)
            assert diff_results("130.li", name, solo, mixed) == []
    assert mixed.cycles == 0


def _mix_digest(results):
    records = [{"config": r.config_name, "workload": r.workload_name,
                "cycles": r.cycles, "instructions": r.instructions,
                "counters": r.counters.as_dict()} for r in results]
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_gshare():
    config = golden_config("2+2:opt")
    config.mem.l1_port_policy = "finite"
    config.mem.lvc_port_policy = "finite"
    config.frontend.policy = "gshare"
    return config


def test_mix_digests_are_pinned(small_li_trace, small_vortex_trace):
    """Multi-program mixes match digests recorded from the hand-written
    lockstep loop the generated kernel replaced (``mix_digests.json``):
    two programs on every golden config and on contended ports with the
    gshare frontend, and one three-program mix."""
    with open(MIX_DIGESTS, encoding="utf-8") as handle:
        expected = json.load(handle)
    pair = [("130.li", small_li_trace.insts),
            ("147.vortex", small_vortex_trace.insts)]
    compress = build_trace("129.compress", length=8_000, seed=7)
    mixes = {f"130.li+147.vortex@{name}": (pair, golden_config(name))
             for name, _kwargs in GOLDEN_CONFIGS}
    mixes["130.li+147.vortex@2+2:opt/finite+gshare"] = (
        pair, _finite_gshare())
    mixes["130.li+147.vortex+129.compress@2+2:opt"] = (
        pair + [("129.compress", compress.insts)], golden_config("2+2:opt"))
    assert set(mixes) == set(expected)
    for key, (traces, config) in mixes.items():
        results = run_mix(traces, config)
        assert [r.cycles for r in results] == expected[key]["cycles"], key
        assert _mix_digest(results) == expected[key]["digest"], key


def test_two_program_mix_interferes(small_li_trace, small_vortex_trace,
                                    decoupled_config):
    results = run_mix(
        [("130.li", small_li_trace.insts),
         ("147.vortex", small_vortex_trace.insts)],
        decoupled_config,
    )
    assert [r.workload_name for r in results] == ["130.li", "147.vortex"]
    for result, solo_insts in zip(
            results, (small_li_trace.insts, small_vortex_trace.insts)):
        solo = Processor(decoupled_config).run(
            solo_insts, result.workload_name)
        # Sharing can only slow a program down, never speed it up
        # (disjoint per-core address spaces: no prefetch gifts).
        assert result.cycles >= solo.cycles
        assert result.instructions == solo.instructions
    # Somebody must have observed the contention.
    total_conflicts = sum(
        r.counters.get("mix.bus_conflicts") for r in results)
    assert total_conflicts > 0


def test_mix_result_slices_and_summary(small_li_trace, small_vortex_trace,
                                       base_config):
    programs = run_mix(
        [("130.li", small_li_trace.insts),
         ("147.vortex", small_vortex_trace.insts)],
        base_config,
    )
    mix = MixResult("(2+0)", programs)
    assert mix.cycles == max(p.cycles for p in programs)
    assert mix.instructions == sum(p.instructions for p in programs)
    assert mix.slice("147.vortex").workload_name == "147.vortex"
    with pytest.raises(KeyError):
        mix.slice("no-such-program")
    interference = mix.interference()
    assert set(interference) == {"130.li", "147.vortex"}
    for counters in interference.values():
        assert set(counters) == set(INTERFERENCE_COUNTERS)
    summary = mix.summary()
    assert summary["config"] == "(2+0)"
    assert len(summary["programs"]) == 2


def test_mix_job_engine_and_cache_round_trip(tmp_path, decoupled_config):
    job = MixJob(("130.li", "129.compress"), decoupled_config, scale=0.001)
    [(returned, first)] = run_sim_jobs([job], cache_dir=str(tmp_path))
    assert returned is job
    [(_, second)] = run_sim_jobs(
        [MixJob(("130.li", "129.compress"), decoupled_config,
                scale=0.001)],
        cache_dir=str(tmp_path))
    assert isinstance(second, MixResult)
    assert second.summary() == first.summary()


def test_mix_job_identity():
    config = golden_config("2+0")
    job = MixJob(("130.li", "129.compress"), config, scale=0.5)
    same = MixJob(("130.li", "129.compress"), config, scale=0.5)
    assert job.key == same.key
    assert job.workload == "130.li+129.compress"
    # Order is part of the identity: core 0 vs core 1 placement differs.
    swapped = MixJob(("129.compress", "130.li"), config, scale=0.5)
    assert swapped.key != job.key
    with pytest.raises(ValueError):
        MixJob((), config)
