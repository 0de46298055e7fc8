"""Dispatch stage: decode the committed stream into the window.

Dispatches up to ``issue_width`` instructions per cycle from the dynamic
stream into the ROB, steering each memory reference to the LSQ or LVAQ
(local-hint shortcut, then the stream partitioner), running the
source-operand scoreboard check, and resolving store addresses early
when the base register is already available (STA/STD split).

The frontend policy gates this stage.  The ``perfect`` policy imposes
nothing — the inner tick runs with the fence at end-of-stream, exactly
the seed machine.  The ``gshare`` policy pre-computes, from the
committed stream, the cycle-independent fetch events (predictor
mispredicts and I-cache misses; see ``repro.core.frontend``) as a sparse
ascending list of ``(index, gate_code)`` pairs, and the tick charges the
bubbles: an I-cache miss stalls dispatch *before* the missing
instruction for ``icache_miss_latency`` cycles; a mispredicted branch
redirects the fetch stream *after* dispatching the branch, stalling for
``1 + redirect_penalty`` cycles.  Each stalled cycle the tick charges
one fetch/redirect bubble and leaves the machine state untouched.

Interface: ``bind(state) -> (tick, finish)``.

``tick(now, index, rob_count, lsq_unserviced, lvaq_unserviced)``
    dispatches one cycle's group; the kernel skips the call once the
    stream is exhausted (``index >= total``).  Returns the four scalars
    updated.
``finish()``
    writes the sequence allocator back to the processor and returns this
    stage's counter contributions.
"""

from __future__ import annotations

from repro.core.frontend import GATE_IMISS, GATE_REDIRECT
from repro.core.stages.state import CoreState
from repro.isa.opcodes import FuClass
from repro.pipeline.memqueue import MemQueueEntry
from repro.pipeline.rob import RobEntry

_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


def bind(state: CoreState):
    """Close over the dispatch working set; returns ``(tick, finish)``."""
    processor = state.processor
    insts = state.insts
    total = state.total
    width = state.width
    rob_size = state.rob_size
    decoupled = state.decoupled
    mispredict_penalty = state.mispredict_penalty
    load_fu = _LOAD
    store_fu = _STORE
    new_rob_entry = RobEntry
    new_mem_entry = MemQueueEntry
    mem_entry_new = MemQueueEntry.__new__
    steer = state.steer
    producer = state.producer
    free_entries = state.free_entries
    rob_append = state.rob_entries.append
    fifo_append = state.ready_fifo.append

    lsq = state.lsq
    lvaq = state.lvaq
    lsq_entries = lsq.entries
    lvaq_entries = lvaq.entries
    lsq_size = lsq.size
    lvaq_size = lvaq.size
    lsq_loads_list = lsq._loads
    lvaq_loads_list = lvaq._loads
    lsq_unknown = lsq._unknown_stores
    lvaq_unknown = lvaq._unknown_stores
    lsq_un_nonsp = lsq._unknown_nonsp_stores
    lvaq_un_nonsp = lvaq._unknown_nonsp_stores
    lsq_ns = lsq._nonsp_stores
    lvaq_ns = lvaq._nonsp_stores
    lsq_words = lsq._stores_by_word
    lvaq_words = lvaq._stores_by_word
    lsq_sp_set = lsq._sp_stores.setdefault
    lvaq_sp_set = lvaq._sp_stores.setdefault

    seq = processor._seq

    n_stall_rob_full = 0
    n_stall_lsq_full = 0
    n_stall_lvaq_full = 0
    n_lsq_loads = 0
    n_lsq_stores = 0
    n_lvaq_loads = 0
    n_lvaq_stores = 0
    n_classify_mispredictions = 0

    # Frontend gating state.  The ``perfect`` policy prepares no gate
    # list (``gates is None``) and dispatch runs with the fence at
    # end-of-stream — exactly the seed machine, for one predictable
    # branch per tick.  See the module docstring for the gshare model.
    frontend = processor.frontend
    gates = frontend.prepare(insts)
    fcfg = state.frontend_config
    icache_miss_latency = fcfg.icache_miss_latency
    redirect_penalty = fcfg.redirect_penalty
    n_gates = len(gates) if gates is not None else 0
    fe_ptr = 0
    fe_stall_until = 0
    fe_redirect = False
    n_fetch_bubbles = 0
    n_redirect_bubbles = 0

    # The trailing defaults re-bind the run-constant working set as
    # frame locals: default values are copied into the frame in C at
    # call time, so every use inside the hot loop is a plain local
    # (LOAD_FAST) access instead of a closure (LOAD_DEREF) one.  The
    # kernel never passes them.
    def tick(now, index, rob_count, lsq_unserviced, lvaq_unserviced,
             total=total, insts=insts, width=width, rob_size=rob_size,
             decoupled=decoupled, mispredict_penalty=mispredict_penalty,
             load_fu=load_fu, store_fu=store_fu,
             new_rob_entry=new_rob_entry, new_mem_entry=new_mem_entry,
             mem_entry_new=mem_entry_new, steer=steer, producer=producer,
             free_entries=free_entries, rob_append=rob_append,
             fifo_append=fifo_append, lsq=lsq, lvaq=lvaq,
             lsq_entries=lsq_entries, lvaq_entries=lvaq_entries,
             lsq_size=lsq_size, lvaq_size=lvaq_size,
             lsq_loads_list=lsq_loads_list,
             lvaq_loads_list=lvaq_loads_list,
             lsq_unknown=lsq_unknown, lvaq_unknown=lvaq_unknown,
             lsq_un_nonsp=lsq_un_nonsp, lvaq_un_nonsp=lvaq_un_nonsp,
             lsq_ns=lsq_ns, lvaq_ns=lvaq_ns,
             lsq_words=lsq_words, lvaq_words=lvaq_words,
             lsq_sp_set=lsq_sp_set, lvaq_sp_set=lvaq_sp_set,
             gates=gates, n_gates=n_gates,
             icache_miss_latency=icache_miss_latency,
             redirect_penalty=redirect_penalty):
        nonlocal seq, n_stall_rob_full, n_stall_lsq_full
        nonlocal n_stall_lvaq_full, n_lsq_loads, n_lsq_stores
        nonlocal n_lvaq_loads, n_lvaq_stores, n_classify_mispredictions
        nonlocal fe_ptr, fe_stall_until, fe_redirect
        nonlocal n_fetch_bubbles, n_redirect_bubbles
        # ---- frontend gating ----------------------------------------
        fence = total
        fe_blocked = False
        if gates is not None:
            if now < fe_stall_until:
                # Fetch is quiet: charge one bubble cycle, touch
                # nothing.
                if fe_redirect:
                    n_redirect_bubbles += 1
                else:
                    n_fetch_bubbles += 1
                fe_blocked = True
            elif fe_ptr < n_gates:
                g, code = gates[fe_ptr]
                if code & GATE_IMISS and index == g:
                    # The next instruction missed in the I-cache: the
                    # fetch group behind it stalls until the line
                    # arrives.
                    n_fetch_bubbles += 1
                    fe_stall_until = now + icache_miss_latency
                    fe_redirect = False
                    if code == GATE_IMISS:
                        fe_ptr += 1
                    else:
                        # Keep the redirect half of the gate for the
                        # post-dispatch check.
                        gates[fe_ptr] = (g, GATE_REDIRECT)
                    fe_blocked = True
                else:
                    # Dispatch must stop before an unserved I-cache
                    # miss, and just after a mispredicted branch.
                    fence = g if code & GATE_IMISS else g + 1
        if not fe_blocked:
            # ---- dispatch -----------------------------------------------
            # Queue compaction bases are canonical on the queue objects
            # (commit is their sole writer, earlier in the cycle).
            lsq_base = lsq.base
            lvaq_base = lvaq.base
            earliest = now + 1
            slots = width
            while slots:
                slots -= 1
                if rob_count >= rob_size:
                    n_stall_rob_full += 1
                    break
                inst = insts[index]
                fu = inst.fu
                is_mem = fu == load_fu or fu == store_fu
                to_lvaq = False
                mispredicted = False
                if is_mem:
                    if decoupled:
                        hint = inst.local_hint
                        if hint is not None:
                            to_lvaq = hint
                        else:
                            to_lvaq, mispredicted = steer(inst)
                    if to_lvaq:
                        if len(lvaq_entries) >= lvaq_size:
                            n_stall_lvaq_full += 1
                            break
                    elif len(lsq_entries) >= lsq_size:
                        n_stall_lsq_full += 1
                        break
                if free_entries:
                    entry = free_entries.pop()
                    entry.seq = seq
                    entry.inst = inst
                    entry.state = 0
                    entry.mem = None
                else:
                    entry = new_rob_entry(seq, inst)
                seq += 1
                # Source-operand scoreboard check, unrolled for the
                # 0/1/2-operand cases (every ISA instruction; the loop tail
                # keeps arbitrary tuples exact).  reg <= 0 is $zero /
                # absent: always ready.
                pending = 0
                srcs = inst.srcs
                n_srcs = len(srcs)
                if n_srcs:
                    reg = srcs[0]
                    if reg > 0:
                        prod = producer[reg]
                        if prod is not None and prod.state != 2:
                            prod.consumers.append(entry)
                            pending = 1
                    if n_srcs > 1:
                        reg = srcs[1]
                        if reg > 0:
                            prod = producer[reg]
                            if (prod is not None
                                    and prod.state != 2):
                                prod.consumers.append(entry)
                                pending += 1
                        if n_srcs > 2:
                            for reg in srcs[2:]:
                                if reg <= 0:
                                    continue
                                prod = producer[reg]
                                if (prod is not None
                                        and prod.state != 2):
                                    prod.consumers.append(entry)
                                    pending += 1
                entry.pending = pending
                entry.earliest = earliest
                dst = inst.dst
                if dst > 0:
                    producer[dst] = entry
                rob_append(entry)  # size checked above
                rob_count += 1
                if is_mem:
                    sp_based = inst.sp_based
                    is_store = fu == store_fu
                    # MemQueueEntry.__init__ spelled out (the constructor
                    # frame is measurable at this call rate).
                    qe = mem_entry_new(new_mem_entry)
                    qe.rob = entry
                    qe.is_store = is_store
                    qe.word = -1
                    qe.line = -1
                    qe.addr_known_time = -1
                    qe.dispatch_time = now
                    qe.serviced = False
                    qe.sp_based = sp_based
                    qe.frame_key = ((inst.frame_id, inst.offset)
                                    if sp_based else None)
                    qe.use_lvc = to_lvaq
                    qe.penalty = (mispredict_penalty
                                  if mispredicted else 0)
                    entry.mem = qe
                    # Append to the queue and its index lists (fullness
                    # was already checked by the stall tests above).
                    if to_lvaq:
                        qe.pos = lvaq_base + len(lvaq_entries)
                        lvaq_entries.append(qe)
                        if is_store:
                            lvaq_unknown.append(qe)
                            if sp_based:
                                lvaq_sp_set(qe.frame_key,
                                            []).append(qe)
                            else:
                                lvaq_un_nonsp.append(qe)
                                lvaq_ns.append(qe)
                        else:
                            lvaq_loads_list.append(qe)
                            lvaq_unserviced += 1
                    else:
                        qe.pos = lsq_base + len(lsq_entries)
                        lsq_entries.append(qe)
                        if is_store:
                            lsq_unknown.append(qe)
                            if sp_based:
                                lsq_sp_set(qe.frame_key,
                                           []).append(qe)
                            else:
                                lsq_un_nonsp.append(qe)
                                lsq_ns.append(qe)
                        else:
                            lsq_loads_list.append(qe)
                            lsq_unserviced += 1
                    if is_store:
                        # STA/STD split (as in sim-outorder and the R10000
                        # address queue): the store's address computes as
                        # soon as its base register is available — it never
                        # waits for the store *data*, so it stops blocking
                        # younger loads' disambiguation almost immediately.
                        srcs = inst.srcs
                        base_reg = srcs[0] if srcs else 0
                        prod = (producer[base_reg]
                                if base_reg > 0 else None)
                        if prod is None or prod.state == 2:
                            qe.addr_known_time = earliest
                            word = qe.word = inst.addr >> 2
                            qe.line = inst.addr >> 5
                            if to_lvaq:
                                b2 = lvaq_words.get(word)
                                if b2 is None:
                                    lvaq_words[word] = [qe]
                                else:
                                    b2.append(qe)
                            else:
                                b2 = lsq_words.get(word)
                                if b2 is None:
                                    lsq_words[word] = [qe]
                                else:
                                    b2.append(qe)
                        if to_lvaq:
                            n_lvaq_stores += 1
                        else:
                            n_lsq_stores += 1
                    elif to_lvaq:
                        n_lvaq_loads += 1
                    else:
                        n_lsq_loads += 1
                    if mispredicted:
                        n_classify_mispredictions += 1
                if pending == 0:
                    entry.in_issuable = True
                    fifo_append(entry)
                index += 1
                if index >= fence:
                    break
            if gates is not None and fe_ptr < n_gates:
                g, code = gates[fe_ptr]
                if index > g and code & GATE_REDIRECT:
                    # The branch at g dispatched this cycle and was
                    # mispredicted: the machine fetches the wrong
                    # path until the branch resolves and redirects.
                    fe_ptr += 1
                    fe_stall_until = now + 1 + redirect_penalty
                    fe_redirect = True
        return index, rob_count, lsq_unserviced, lvaq_unserviced

    def finish():
        processor._seq = seq
        counters = {
            "stall.rob_full": n_stall_rob_full,
            "stall.lsq_full": n_stall_lsq_full,
            "stall.lvaq_full": n_stall_lvaq_full,
            "lsq.loads": n_lsq_loads,
            "lsq.stores": n_lsq_stores,
            "lvaq.loads": n_lvaq_loads,
            "lvaq.stores": n_lvaq_stores,
            "classify.mispredictions": n_classify_mispredictions,
        }
        if gates is not None:
            counters["frontend.mispredicts"] = frontend.mispredicts
            counters["frontend.icache_misses"] = frontend.icache_misses
            counters["frontend.redirect_bubbles"] = n_redirect_bubbles
            counters["frontend.fetch_bubbles"] = n_fetch_bubbles
        return counters

    return tick, finish
