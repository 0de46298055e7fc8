"""The LSQ/LVAQ rules, tested through the cores that run them.

:class:`repro.pipeline.memqueue.MemQueue` only holds the queue data; the
rules live in the stage sources (which the generated kernel runs) and in
the frozen reference core.  Each test here is a hand-built micro-trace
run through the generated kernel, the portable kernel and the
reference (``run_all_cores`` requires them to agree exactly), followed
by the counter or timing the rule fixes.
"""

from repro.vm.trace import DynInst
from tests.core.test_processor import (
    DATA_ADDR,
    IDIV,
    STACK_ADDR,
    load,
    run_all_cores,
    store,
)

A = DATA_ADDR
B = DATA_ADDR + 0x400
DECOUPLED_FF = dict(l1_ports=2, lvc_ports=2, fast_forwarding=True)


def div(dst, srcs=()):
    """A 34-cycle integer divide: a late-arriving register."""
    return DynInst(IDIV, dst=dst, srcs=tuple(srcs))


def sp_store(off, frame=1, srcs=(5, 6)):
    return store(STACK_ADDR + off, local=True, srcs=srcs, sp_based=True,
                  frame=frame, off=off)


def sp_load(dst, off, frame=1):
    return load(dst, STACK_ADDR + off, local=True, srcs=(29,),
                sp_based=True, frame=frame, off=off)


def counts(result, *names):
    return tuple(result.counters.get(name) for name in names)


def test_capacity():
    loads = [load(8 + i, A + 0x1000 * i, srcs=(7,)) for i in range(6)]
    _, small = run_all_cores(loads, lsq_size=2)
    _, large = run_all_cores(loads)
    assert small.counters.get("stall.lsq_full") > 0
    assert large.counters.get("stall.lsq_full") == 0
    assert small.cycles > large.cycles


def test_retire_committed_from_head():
    loads = [load(8 + i, A + 0x1000 * i, srcs=(7,)) for i in range(6)]
    processor, result = run_all_cores(loads, lsq_size=2)
    # Every op left through the head: the queue is empty and its
    # position base counts all six.
    assert processor.lsq.entries == []
    assert processor.lsq.base == 6
    assert result.counters.get("lsq.loads") == 6


def test_retire_stops_at_uncommitted():
    # The head store waits ~34 cycles for its address; the load behind
    # it completes early but cannot retire past it, so with two slots
    # the third memory op waits for the store to commit.
    insts = [div(5), store(A, srcs=(5, 6)), load(8, A + 4, srcs=(7,)),
             load(9, A + 8, srcs=(7,))]
    _, two = run_all_cores(insts, lsq_size=2)
    _, three = run_all_cores(insts, lsq_size=3)
    assert two.counters.get("stall.lsq_full") >= 30
    assert three.counters.get("stall.lsq_full") == 0


def test_oldest_unknown_store():
    # The load must wait for *every* older unknown-address store, not
    # just the oldest: B's address arrives ~34 cycles after A's.
    def trace(b_srcs):
        return [div(5), div(7, (5,)), store(A, srcs=(5, 6)),
                store(B, srcs=b_srcs), load(8, A, srcs=(9,)),
                div(10, (8,))]

    _, both_unknown = run_all_cores(trace((7, 6)))
    _, b_known = run_all_cores(trace((9, 6)))
    assert both_unknown.counters.get("lsq.forwards") == 1
    assert b_known.counters.get("lsq.forwards") == 1
    assert both_unknown.cycles >= b_known.cycles + 30


def test_no_unknown_store_is_inf():
    # With no unknown-address store ahead, a load goes to memory at
    # once: a known store to another word costs it nothing.
    _, alone = run_all_cores([load(8, A, srcs=(7,)), div(10, (8,))])
    _, behind = run_all_cores([store(B, srcs=(9, 6)), load(8, A, srcs=(7,)),
                               div(10, (8,))])
    assert behind.cycles == alone.cycles
    assert behind.counters.get("lsq.forwards") == 0


def test_forward_source_youngest_match():
    # Two older stores to the word forward once; a store younger than
    # the load is ignored, and alone it never forwards.
    _, older = run_all_cores([store(A), store(A), load(8, A, srcs=(7,)),
                              store(A)])
    _, younger = run_all_cores([load(8, A, srcs=(7,)), store(A)])
    assert older.counters.get("lsq.forwards") == 1
    assert younger.counters.get("lsq.forwards") == 0


def test_forward_source_no_match():
    _, result = run_all_cores([store(A), load(8, A + 4)])
    assert result.counters.get("lsq.forwards") == 0
    assert result.counters.get("l1.accesses") == 2  # the load went to L1


def test_fast_forward_match_by_frame_key():
    _, result = run_all_cores([sp_store(8, srcs=(29, 6)), sp_load(8, 8)],
                              **DECOUPLED_FF)
    assert counts(result, "lvaq.fast_forwards", "lvaq.forwards") == (1, 0)


def test_fast_forward_different_offset_is_conclusive_no_match():
    _, result = run_all_cores([sp_store(8, srcs=(29, 6)), sp_load(8, 12)],
                              **DECOUPLED_FF)
    assert counts(result, "lvaq.fast_forwards", "lvaq.forwards") == (0, 0)
    # Conclusive: offsets prove the load independent of an sp store
    # whose address is still unknown, so fast forwarding lets the load
    # go ahead of that store's address generation.
    late = [div(5), sp_store(8), sp_load(8, 12), div(10, (8,))]
    _, fast = run_all_cores(late, **DECOUPLED_FF)
    _, plain = run_all_cores(late, l1_ports=2, lvc_ports=2)
    assert fast.cycles + 30 <= plain.cycles


def test_fast_forward_blocked_by_unknown_nonsp_store():
    # A same-key sp store exists, but a younger non-sp store with an
    # unknown address may alias: no fast forward; once that address is
    # known, the load forwards conventionally.
    insts = [sp_store(8, srcs=(29, 6)), div(5),
             store(STACK_ADDR + 8, local=True, srcs=(5, 6)), sp_load(8, 8)]
    _, result = run_all_cores(insts, **DECOUPLED_FF)
    assert counts(result, "lvaq.fast_forwards", "lvaq.forwards") == (0, 1)


def test_fast_forward_different_frames_do_not_match():
    # Same address and offset in a new frame: the (frame, offset) key
    # differs, so only the address path forwards.
    _, result = run_all_cores([sp_store(8, srcs=(29, 6)),
                               sp_load(8, 8, frame=2)], **DECOUPLED_FF)
    assert counts(result, "lvaq.fast_forwards", "lvaq.forwards") == (0, 1)


def test_non_sp_load_never_fast_forwards():
    insts = [sp_store(8, srcs=(29, 6)),
             load(8, STACK_ADDR + 8, local=True)]
    _, result = run_all_cores(insts, **DECOUPLED_FF)
    assert counts(result, "lvaq.fast_forwards", "lvaq.forwards") == (0, 1)


def test_oldest_unknown_nonsp_store_skips_sp_stores():
    # Behind fast forwarding only non-sp unknown stores block an sp
    # load: the same late store, made non-sp, holds the load back.
    _, sp_ahead = run_all_cores(
        [div(5), sp_store(40), sp_load(8, 12), div(10, (8,))],
        **DECOUPLED_FF)
    _, nonsp_ahead = run_all_cores(
        [div(5), store(STACK_ADDR + 40, local=True, srcs=(5, 6)),
         sp_load(8, 12), div(10, (8,))], **DECOUPLED_FF)
    assert nonsp_ahead.cycles >= sp_ahead.cycles + 30
