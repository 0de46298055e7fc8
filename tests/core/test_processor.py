"""Tests for the timing simulator.

A mix of micro-traces with hand-checkable timing properties and invariants
over real workload traces.  :func:`run_all_cores` runs a micro-trace on
the generated kernel, the portable kernel and the frozen reference core
and requires all three to agree exactly, so a rule tested through it is
pinned where it lives: in the stage sources and the reference.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.core.stages.state import CoreState
from repro.isa.opcodes import FuClass
from repro.perf.golden import diff_results
from repro.perf.reference import ReferenceProcessor
from repro.vm.trace import DynInst

IALU = int(FuClass.IALU)
IDIV = int(FuClass.IDIV)
LOAD = int(FuClass.LOAD)
STORE = int(FuClass.STORE)

STACK_ADDR = 0x7FFF0000
DATA_ADDR = 0x10000000


def run(insts, **baseline_kwargs):
    config = MachineConfig.baseline(**baseline_kwargs)
    return Processor(config).run(list(insts), "micro")


#: MachineConfig fields :func:`machine` sets after ``baseline``.
_WINDOW_FIELDS = ("issue_width", "rob_size", "lsq_size", "lvaq_size",
                  "ialu_units", "falu_units", "imultdiv_units",
                  "fmultdiv_units")


def machine(**kwargs):
    """``MachineConfig.baseline`` plus window/FU fields from *kwargs*."""
    window = {k: kwargs.pop(k) for k in _WINDOW_FIELDS if k in kwargs}
    config = MachineConfig.baseline(**kwargs)
    for name, value in window.items():
        setattr(config, name, value)
    return config


def run_all_cores(insts, **kwargs):
    """Run *insts* on the generated kernel, the portable kernel and the
    reference core; require exact agreement and return the kernel's
    :class:`Processor` (after the run) and result."""
    insts = list(insts)
    processor = Processor(machine(**kwargs))
    result = processor.run(insts, "micro")
    portable_core = Processor(machine(**kwargs))
    out = portable_core._portable_kernel(
        CoreState(portable_core, insts), insts)
    portable = portable_core._result(out, len(insts), "micro")
    reference = ReferenceProcessor(machine(**kwargs)).run(insts, "micro")
    name = processor.config.notation()
    assert diff_results("micro", name, reference, result) == []
    assert diff_results("micro", name, reference, portable) == []
    return processor, result


def alu(dst, srcs=()):
    return DynInst(IALU, dst=dst, srcs=tuple(srcs))


def load(dst, addr, local=False, srcs=(5,), sp_based=False, frame=0, off=0):
    return DynInst(LOAD, dst=dst, srcs=tuple(srcs), addr=addr, size=4,
                   local_hint=local, is_local=local, sp_based=sp_based,
                   frame_id=frame, offset=off)


def store(addr, local=False, srcs=(5, 6), sp_based=False, frame=0, off=0):
    return DynInst(STORE, srcs=tuple(srcs), addr=addr, size=4,
                   local_hint=local, is_local=local, sp_based=sp_based,
                   frame_id=frame, offset=off)


# -- basic sanity ------------------------------------------------------------

def test_empty_like_trace_terminates():
    result = run([alu(8)])
    assert result.instructions == 1
    assert result.cycles >= 1


def test_independent_ops_superscalar():
    """16 independent ALU ops should take only a few cycles, not 16."""
    result = run([alu(8 + i) for i in range(16)])
    assert result.cycles < 10


def test_dependent_chain_serialises():
    """A chain of N dependent 1-cycle ops needs at least N cycles."""
    insts = [alu(8)]
    for _ in range(20):
        insts.append(alu(8, srcs=(8,)))
    result = run(insts)
    assert result.cycles >= 21


def test_divide_latency_on_critical_path():
    fast = run([alu(8), alu(9, srcs=(8,))])
    slow = run([DynInst(IDIV, dst=8, srcs=()), alu(9, srcs=(8,))])
    assert slow.cycles >= fast.cycles + 30  # ~34-cycle divide


def test_ipc_counts():
    result = run([alu(8 + (i % 8)) for i in range(100)])
    assert result.instructions == 100
    assert result.ipc == pytest.approx(100 / result.cycles)


# -- memory behaviour --------------------------------------------------------

def test_load_hit_faster_than_miss():
    warm = [load(8, DATA_ADDR), load(9, DATA_ADDR)]
    cold = [load(8, DATA_ADDR), load(9, DATA_ADDR + 0x4000)]
    assert run(warm).cycles <= run(cold).cycles


def test_store_to_load_forwarding_beats_cold_miss():
    forwarded = [store(DATA_ADDR), load(8, DATA_ADDR)]
    result = run(forwarded)
    # The load forwards from the queue: no second miss on the bus.
    assert result.counters.get("lsq.forwards") == 1


def test_port_limit_throttles():
    """32 independent loads to distinct warm lines: ports gate throughput."""
    lines = [DATA_ADDR + 32 * i for i in range(32)]
    warmup = [load(8, a) for a in lines]
    insts = warmup + [load(8 + (i % 8), a) for i, a in enumerate(lines * 4)]
    one = run(insts, l1_ports=1)
    many = run(insts, l1_ports=8)
    assert one.cycles > many.cycles


def test_local_refs_use_lvc_when_decoupled():
    insts = [store(STACK_ADDR, local=True), load(8, STACK_ADDR + 64,
                                                 local=True)]
    result = run(insts, l1_ports=2, lvc_ports=2)
    assert result.counters.get("lvaq.stores") == 1
    assert result.counters.get("lvaq.loads") == 1
    assert result.counters.get("lsq.loads") == 0


def test_local_refs_use_lsq_when_not_decoupled():
    insts = [store(STACK_ADDR, local=True), load(8, STACK_ADDR, local=True)]
    result = run(insts, l1_ports=2, lvc_ports=0)
    assert result.counters.get("lsq.stores") == 1
    assert result.counters.get("lvaq.stores") == 0


def test_ambiguous_ref_predicted_and_counted():
    ambiguous = DynInst(LOAD, dst=8, srcs=(5,), addr=STACK_ADDR, size=4,
                        local_hint=None, is_local=True, pc=77)
    result = run([ambiguous] * 3, l1_ports=2, lvc_ports=2)
    # first dynamic instance mispredicts (table cold), later ones do not
    assert result.counters.get("classify.mispredictions") == 1
    assert result.counters.get("lvaq.loads") == 3


def test_fast_forwarding_counted():
    pair = [
        store(STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
        load(8, STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
    ]
    _, one = run_all_cores(pair, l1_ports=2, lvc_ports=2,
                           fast_forwarding=True)
    assert one.counters.get("lvaq.fast_forwards") == 1
    assert one.counters.get("lvaq.forwards") == 0
    _, result = run_all_cores(pair * 10, l1_ports=2, lvc_ports=2,
                              fast_forwarding=True)
    assert result.counters.get("lvaq.fast_forwards") > 0
    # Without the option the same pairs forward only by address.
    _, plain = run_all_cores(pair * 10, l1_ports=2, lvc_ports=2)
    assert plain.counters.get("lvaq.fast_forwards") == 0
    assert plain.counters.get("lvaq.forwards") > 0


def test_fast_forwarding_does_not_cross_frames():
    pair = [
        store(STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
        load(8, STACK_ADDR + 108, local=True, sp_based=True, frame=2, off=8),
    ]
    _, result = run_all_cores(pair * 5, l1_ports=2, lvc_ports=2,
                              fast_forwarding=True)
    assert result.counters.get("lvaq.fast_forwards") == 0
    assert result.counters.get("lvaq.forwards") == 0


def test_combining_reduces_lvc_transactions():
    # bursts of adjacent same-line local loads (a restore sequence)
    burst = [load(8 + i, STACK_ADDR + 4 * i, local=True, srcs=(29,))
             for i in range(8)]
    warm = [load(8, STACK_ADDR, local=True, srcs=(29,))]
    insts = warm + burst * 8
    plain = run(insts, l1_ports=2, lvc_ports=1)
    combined = run(insts, l1_ports=2, lvc_ports=1, combining=4)
    assert combined.counters.get("lvaq.load_combined") > 0
    assert combined.cycles <= plain.cycles


def test_store_combining_at_commit():
    burst = [store(STACK_ADDR + 4 * i, local=True, srcs=(29, 6),
                   sp_based=True, frame=1, off=4 * i) for i in range(8)]
    result = run(burst * 6, l1_ports=2, lvc_ports=1, combining=4)
    assert result.counters.get("lvaq.store_combined") > 0


# -- invariants over real traces ----------------------------------------------

def test_all_instructions_commit(small_li_trace):
    result = Processor(MachineConfig.baseline(2, 2)).run(
        small_li_trace.insts, "li"
    )
    assert result.instructions == len(small_li_trace)
    assert result.counters.get("cycles") == result.cycles


def test_queue_accounting_conserved(small_li_trace):
    result = Processor(MachineConfig.baseline(2, 2)).run(
        small_li_trace.insts, "li"
    )
    c = result.counters
    total_mem = (c.get("lsq.loads") + c.get("lsq.stores")
                 + c.get("lvaq.loads") + c.get("lvaq.stores"))
    assert total_mem == small_li_trace.stats.mem_refs


def test_more_l1_ports_never_slower(small_vortex_trace):
    insts = small_vortex_trace.insts
    two = Processor(MachineConfig.baseline(2, 0)).run(insts, "v")
    eight = Processor(MachineConfig.baseline(8, 0)).run(insts, "v")
    assert eight.cycles <= two.cycles


def test_determinism(small_li_trace):
    a = Processor(MachineConfig.baseline(3, 2)).run(small_li_trace.insts, "li")
    b = Processor(MachineConfig.baseline(3, 2)).run(small_li_trace.insts, "li")
    assert a.cycles == b.cycles


def test_lvc_hit_rate_high_on_li(small_li_trace):
    result = Processor(MachineConfig.baseline(2, 2)).run(
        small_li_trace.insts, "li"
    )
    assert result.lvc_miss_rate < 0.05


def test_wider_issue_helps_or_equal(small_li_trace):
    narrow = MachineConfig.baseline(4, 0)
    narrow.issue_width = 4
    wide = MachineConfig.baseline(4, 0)
    a = Processor(narrow).run(small_li_trace.insts, "li")
    b = Processor(wide).run(small_li_trace.insts, "li")
    assert b.cycles <= a.cycles


def _stuck_trace():
    """A divide the store's address waits on, and a load behind that
    store: nothing commits for ~34 cycles."""
    return [DynInst(IDIV, dst=5), store(DATA_ADDR, srcs=(5, 6)),
            load(8, DATA_ADDR + 4, srcs=(7,))]


def test_livelock_report_describes_the_stopped_core():
    from repro.core.processor import step_cores
    from repro.core.stages.specialize import kernel_for

    insts = _stuck_trace()
    processor = Processor(MachineConfig.baseline())
    state = CoreState(processor, insts)
    kernel = kernel_for(processor, state)
    (out,) = step_cores([kernel(processor, state, 10)], 10)
    assert out[4]  # stopped by the limit
    report = processor._livelock_report(10, len(insts), out[2])
    assert "cycle limit exceeded (10) at 0/3 committed" in report
    assert "dispatch index 3" in report
    assert "head=RobEntry(seq=0, ISSUED" in report
    assert ("lsq 2/64 (unserviced_loads=1, oldest_unknown_store_seq=1)"
            in report)


def test_mix_limit_error_carries_the_slowest_core_report(monkeypatch):
    from repro.core import multicore
    from repro.core.stages import specialize
    from repro.errors import SimulationError

    # Stop the mix after ten cycles: the kernels and the driver both
    # take the smaller limit.
    real_kernel_for, real_step = specialize.kernel_for, multicore.step_cores
    monkeypatch.setattr(
        specialize, "kernel_for",
        lambda p, s: lambda proc, st, _limit: real_kernel_for(p, s)(
            proc, st, 10))
    monkeypatch.setattr(multicore, "step_cores",
                        lambda kernels, _limit: real_step(kernels, 10))
    with pytest.raises(SimulationError) as info:
        multicore.run_mix([("quick", [alu(8)]), ("stuck", _stuck_trace())],
                          MachineConfig.baseline())
    message = str(info.value)
    assert "1/2 programs unfinished; slowest program 'stuck'" in message
    assert "at 0/3 committed" in message
    assert "oldest_unknown_store_seq=1" in message


def _fake_core(log, name, finish_at, sleep_to=0, limit=20):
    """A stand-in cycle generator with the kernel's protocol: it logs
    each cycle it is sent, asks to sleep until *sleep_to* after every
    step, and returns at *finish_at* or past *limit*."""
    wake = 0
    while True:
        now = yield wake
        if now > limit:
            return (now, name, 0, {}, True, 0)
        log.append((now, name))
        if now == finish_at:
            return (now, name, 0, {}, False, 0)
        wake = sleep_to


def test_step_cores_lockstep_wake_and_limit():
    from repro.core.processor import step_cores

    log = []
    outs = step_cores([_fake_core(log, "a", finish_at=3),
                       _fake_core(log, "b", finish_at=-1, sleep_to=15)],
                      limit=20)
    # Core order within a cycle; b sleeps to 15 once, then every later
    # step asks for a cycle already past, so it runs each cycle.
    assert log[:5] == [(1, "a"), (1, "b"), (2, "a"), (3, "a"), (15, "b")]
    assert log[5:] == [(t, "b") for t in range(16, 21)]
    assert outs[0] == (3, "a", 0, {}, False, 0)
    # Past the limit, the live core is sent one last cycle and stops.
    assert outs[1] == (21, "b", 0, {}, True, 0)
