"""Golden-equivalence tests: the optimized core is bit-identical to the seed.

These are the acceptance tests of the performance work.  The optimized
:class:`~repro.core.processor.Processor` must produce exactly the same
cycle counts, instruction counts, and counters as the frozen seed core in
:mod:`repro.perf.reference` — on the real workload/config matrix, on
randomized traces, and through the parallel runtime path.

A sensitivity test closes the loop: a core with a deliberately wrong
(off-by-one) functional-unit latency must be *caught* by the harness,
proving the comparison has teeth.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.processor as processor_module
from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.isa.opcodes import FuClass
from repro.perf.golden import (
    FIG9_CONFIG,
    GOLDEN_CONFIGS,
    check_equivalence,
    compare_on_trace,
    diff_results,
    golden_config,
)
from repro.perf.reference import ReferenceProcessor
from repro.workloads.builder import build_trace

from tests.core.test_processor_fuzz import dyn_insts, machine_configs

#: One pointer-chasing integer, one list-heavy integer, one FP workload —
#: a cross-section, kept small so the full config matrix stays fast.
MATRIX_WORKLOADS = ("129.compress", "130.li", "102.swim")
MATRIX_LENGTH = 6_000


class PerturbedProcessor(Processor):
    """The optimized core with the IALU latency off by one.

    Exists to prove the equivalence harness actually detects timing bugs:
    a single extra cycle on the most common operation must surface as a
    cycle-count mismatch on any non-trivial trace.
    """

    def run(self, insts, workload_name="<trace>"):
        table = processor_module.LATENCY_BY_INT
        idx = int(FuClass.IALU)
        table[idx] += 1
        try:
            return super().run(insts, workload_name)
        finally:
            table[idx] -= 1


@pytest.mark.parametrize("config_name,kwargs", GOLDEN_CONFIGS,
                         ids=[name for name, _ in GOLDEN_CONFIGS])
def test_matrix_equivalence(config_name, kwargs):
    config = MachineConfig.baseline(**kwargs)
    for workload in MATRIX_WORKLOADS:
        insts = build_trace(workload, length=MATRIX_LENGTH, seed=1).insts
        mismatches = compare_on_trace(insts, config, workload, config_name)
        assert not mismatches, mismatches[:5]


def test_check_equivalence_sweep_passes():
    mismatches = check_equivalence(["129.compress"], length=4_000)
    assert mismatches == []


def test_fig9_config_is_the_decoupled_optimized_machine():
    config = golden_config(FIG9_CONFIG)
    assert config.mem.l1_ports == 2
    assert config.mem.lvc_ports == 2
    assert config.decouple.fast_forwarding
    assert config.decouple.combining == 2


@settings(max_examples=25, deadline=None)
@given(st.lists(dyn_insts(), min_size=1, max_size=120), machine_configs())
def test_randomized_equivalence(insts, config):
    """Hypothesis sweep: random traces, random machines, zero divergence."""
    expected = ReferenceProcessor(config).run(list(insts), "fuzz")
    actual = Processor(config).run(list(insts), "fuzz")
    assert actual.cycles == expected.cycles
    assert actual.instructions == expected.instructions
    assert actual.counters.as_dict() == expected.counters.as_dict()


def test_perturbed_core_is_caught():
    """Satellite: an off-by-one latency must not slip past the harness."""
    insts = build_trace("129.compress", length=4_000, seed=1).insts
    config = golden_config(FIG9_CONFIG)
    mismatches = compare_on_trace(insts, config, "129.compress",
                                  FIG9_CONFIG,
                                  optimized=PerturbedProcessor)
    assert any(m.field == "cycles" for m in mismatches), (
        "equivalence harness failed to detect an off-by-one IALU latency")
    # ... and the patch restored the table: the real core still matches.
    assert compare_on_trace(insts, config, "129.compress",
                            FIG9_CONFIG) == []


def test_diff_results_reports_counter_divergence():
    config = golden_config(FIG9_CONFIG)
    insts = build_trace("129.compress", length=2_000, seed=1).insts
    a = Processor(config).run(insts, "x")
    b = Processor(config).run(insts, "x")
    b.counters.add("lvc.hits", 1)
    mismatches = diff_results("x", "cfg", a, b)
    assert len(mismatches) == 1
    assert mismatches[0].field == "counters[lvc.hits]"
    assert "lvc.hits" in repr(mismatches[0])


def test_equivalence_through_parallel_runtime(tmp_path):
    """The optimized core run via the runtime engine (worker processes +
    on-disk cache) still matches direct in-process reference runs."""
    from repro.runtime.engine import RuntimeSession
    from repro.runtime.job import SimJob
    from repro.workloads.spec import get_spec

    workload = "129.compress"
    scale = 0.2
    length = max(10_000, int(get_spec(workload).default_length * scale))
    configs = [golden_config("2+0"), golden_config(FIG9_CONFIG)]

    session = RuntimeSession(jobs=2, cache_dir=str(tmp_path))
    jobs = [SimJob(workload, cfg, scale=scale, seed=1) for cfg in configs]
    report = session.run(jobs)
    assert not report.failed

    insts = build_trace(workload, length=length, seed=1).insts
    for job, config in zip(jobs, configs):
        engine_result = report.outcomes[job.key].result
        expected = ReferenceProcessor(config).run(insts, workload)
        assert engine_result.cycles == expected.cycles
        assert engine_result.instructions == expected.instructions
        assert engine_result.counters.as_dict() == expected.counters.as_dict()


@pytest.mark.parametrize("realism", ["finite-ports", "gshare"])
def test_realism_configs_are_perturbation_sensitive(realism):
    """The realism policies flow through the same checked timing model.

    The seed reference models neither contended ports nor a gshare
    frontend, so these configs cannot diff against it; instead the
    optimized core is compared against *itself*, with the perturbed
    variant standing in for a timing bug.  The off-by-one IALU latency
    must still surface as a cycle mismatch — proving the harness's
    sensitivity survives the non-ideal memory and frontend paths — and
    the unperturbed self-comparison must stay exactly clean.
    """
    insts = build_trace("129.compress", length=4_000, seed=1).insts
    config = golden_config(FIG9_CONFIG)
    if realism == "finite-ports":
        config.mem.l1_port_policy = "finite"
        config.mem.lvc_port_policy = "finite"
    else:
        config.frontend.policy = "gshare"
        # At the default penalties this trace is frontend-bound and a
        # one-cycle execution perturbation hides entirely behind fetch
        # bubbles; minimal penalties keep the gshare path exercised
        # while leaving execution latency on the critical path.
        config.frontend.redirect_penalty = 0
        config.frontend.icache_miss_latency = 1
    mismatches = compare_on_trace(insts, config, "129.compress", realism,
                                  optimized=PerturbedProcessor,
                                  reference=Processor)
    assert any(m.field == "cycles" for m in mismatches), (
        f"{realism}: harness failed to detect an off-by-one IALU latency")
    assert compare_on_trace(insts, config, "129.compress", realism,
                            optimized=Processor, reference=Processor) == []
