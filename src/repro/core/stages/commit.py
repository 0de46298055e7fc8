"""Commit stage: in-order retirement; stores write their cache here.

Retires up to ``issue_width`` completed instructions per cycle from the
ROB head.  A store performs its cache write at commit — consuming a port
(or combining into the previous same-line LVC transaction) — so a store
that cannot get a port stalls the whole commit group
(``stall.store_port``).  Retired memory ops are dropped from their queue
head, and this stage is the sole writer of the queues' ``base`` /
``_ns_head`` compaction state.

Interface: ``bind(state) -> (tick, finish)``.

``tick(now, rob_count, committed_total, l1_avail, lvc_avail)``
    must only be called when the ROB head exists and is COMPLETED;
    returns the four scalars updated.
``finish()``
    returns this stage's counter contributions (prefixed ``_`` for
    shares the processor applies to objects rather than named counters).
"""

from __future__ import annotations

from typing import Optional

from repro.core.stages.state import CoreState


def bind(state: CoreState):
    """Close over the commit working set; returns ``(tick, finish)``."""
    width = state.width
    combining = state.combining
    combine_window = combining > 1
    rob_entries = state.rob_entries
    rob_popleft = rob_entries.popleft
    producer = state.producer
    free_entries = state.free_entries

    lsq = state.lsq
    lvaq = state.lvaq
    lsq_entries = lsq.entries
    lvaq_entries = lvaq.entries
    lsq_ns = lsq._nonsp_stores
    lvaq_ns = lvaq._nonsp_stores
    lsq_words = lsq._stores_by_word
    lvaq_words = lvaq._stores_by_word
    lsq_sp = lsq._sp_stores
    lvaq_sp = lvaq._sp_stores

    hierarchy = state.hierarchy
    ready_l1 = hierarchy.ready_l1
    ready_lvc = hierarchy.ready_lvc
    l1_simple = state.l1_simple
    lvc_simple = state.lvc_simple
    have_lvc = state.have_lvc
    l1_ports = state.l1_ports
    lvc_ports = state.lvc_ports
    l1_try_take = l1_ports.try_take
    lvc_try_take = lvc_ports.try_take if have_lvc else None
    l1_sets = state.l1_sets
    l1_shift = state.l1_shift
    l1_smask = state.l1_smask
    l1_dirty = state.l1_dirty
    l1_pending = state.l1_pending
    lvc_sets = state.lvc_sets
    lvc_shift = state.lvc_shift
    lvc_smask = state.lvc_smask
    lvc_dirty = state.lvc_dirty
    lvc_pending = state.lvc_pending

    n_stall_store_port = 0
    n_lvaq_store_combined = 0
    cm_l1_fast = 0
    cm_lvc_fast = 0
    cm_l1_busy = 0
    cm_lvc_busy = 0

    # The trailing defaults re-bind the run-constant working set as
    # frame locals: default values are copied into the frame in C at
    # call time, so every use inside the hot loop is a plain local
    # (LOAD_FAST) access instead of a closure (LOAD_DEREF) one.  The
    # kernel never passes them.
    def tick(now, rob_count, committed_total, l1_avail, lvc_avail,
             width=width, combining=combining,
             combine_window=combine_window, rob_entries=rob_entries,
             rob_popleft=rob_popleft, producer=producer,
             free_entries=free_entries, lsq=lsq, lvaq=lvaq,
             lsq_entries=lsq_entries, lvaq_entries=lvaq_entries,
             lsq_ns=lsq_ns, lvaq_ns=lvaq_ns,
             lsq_words=lsq_words, lvaq_words=lvaq_words,
             lsq_sp=lsq_sp, lvaq_sp=lvaq_sp,
             ready_l1=ready_l1, ready_lvc=ready_lvc,
             l1_simple=l1_simple, lvc_simple=lvc_simple,
             have_lvc=have_lvc, l1_try_take=l1_try_take,
             lvc_try_take=lvc_try_take, l1_sets=l1_sets,
             l1_shift=l1_shift, l1_smask=l1_smask, l1_dirty=l1_dirty,
             l1_pending=l1_pending, lvc_sets=lvc_sets,
             lvc_shift=lvc_shift, lvc_smask=lvc_smask,
             lvc_dirty=lvc_dirty, lvc_pending=lvc_pending):
        nonlocal n_stall_store_port, n_lvaq_store_combined
        nonlocal cm_l1_fast, cm_lvc_fast, cm_l1_busy, cm_lvc_busy
        entry = rob_entries[0]
        budget = width
        combine_side: Optional[bool] = None
        combine_line = -1
        combine_left = 0
        retired_lsq = False
        retired_lvaq = False
        while True:
            qe = entry.mem
            if qe is not None:
                if qe.use_lvc:
                    retired_lvaq = True
                else:
                    retired_lsq = True
                if qe.is_store:
                    use_lvc = qe.use_lvc
                    if (combine_window
                            and use_lvc
                            and combine_side == use_lvc
                            and combine_line == qe.line
                            and combine_left > 0):
                        combine_left -= 1
                        n_lvaq_store_combined += 1
                    else:
                        if use_lvc:
                            if lvc_simple:
                                if lvc_avail == 0:
                                    n_stall_store_port += 1
                                    break
                                lvc_avail -= 1
                                cm_lvc_busy += 1
                            elif not have_lvc or not lvc_try_take(
                                    1, line=qe.line, is_store=True):
                                n_stall_store_port += 1
                                break
                        elif l1_simple:
                            if l1_avail == 0:
                                n_stall_store_port += 1
                                break
                            l1_avail -= 1
                            cm_l1_busy += 1
                        elif not l1_try_take(
                                1, line=qe.line, is_store=True):
                            n_stall_store_port += 1
                            break
                        combine_side = use_lvc
                        combine_line = qe.line
                        combine_left = combining - 1
                    addr = qe.word << 2
                    if use_lvc:
                        line_no = addr >> lvc_shift
                        if lvc_pending:
                            t = lvc_pending.get(line_no)
                            pend = t is not None and t > now
                        else:
                            pend = False
                        if pend:
                            ready_lvc(addr, True, now)
                        else:
                            ways = lvc_sets[line_no & lvc_smask]
                            if line_no in ways:
                                cm_lvc_fast += 1
                                if ways[0] != line_no:
                                    ways.remove(line_no)
                                    ways.insert(0, line_no)
                                lvc_dirty.add(line_no)
                            else:
                                ready_lvc(addr, True, now)
                    else:
                        line_no = addr >> l1_shift
                        if l1_pending:
                            t = l1_pending.get(line_no)
                            pend = t is not None and t > now
                        else:
                            pend = False
                        if pend:
                            ready_l1(addr, True, now)
                        else:
                            ways = l1_sets[line_no & l1_smask]
                            if line_no in ways:
                                cm_l1_fast += 1
                                if ways[0] != line_no:
                                    ways.remove(line_no)
                                    ways.insert(0, line_no)
                                l1_dirty.add(line_no)
                            else:
                                ready_l1(addr, True, now)
            rob_popleft()
            rob_count -= 1
            entry.state = 3
            dst = entry.inst.dst
            # producer[] is only ever written for dst > 0 (dispatch),
            # so 0 cannot match.
            if dst > 0 and producer[dst] is entry:
                producer[dst] = None
            consumers = entry.consumers
            if consumers:
                consumers.clear()
            if not entry.in_issuable:
                free_entries.append(entry)
            committed_total += 1
            budget -= 1
            if budget == 0 or rob_count == 0:
                break
            entry = rob_entries[0]
            if entry.state != 2:
                break
        # A retire pass with nothing committed at a queue head is a
        # no-op, so a flag set by a store that then stalled on its port
        # is harmless.  Both blocks retire a queue's committed
        # entries: drop the committed prefix, unhook each dropped store
        # from its word/frame bucket, and advance the non-sp-store
        # cursor past retired positions.  This stage is the only writer
        # of ``base`` / ``_ns_head``, kept canonical on the queues.
        if retired_lsq:
            q_entries = lsq_entries
            q_n = len(q_entries)
            drop = 0
            while drop < q_n and q_entries[drop].rob.state == 3:
                drop += 1
            if drop:
                for i2 in range(drop):
                    qe2 = q_entries[i2]
                    if not qe2.is_store:
                        continue
                    word = qe2.word
                    if word >= 0:
                        b2 = lsq_words.get(word)
                        if b2 is not None:
                            try:
                                b2.remove(qe2)
                            except ValueError:
                                pass
                            if not b2:
                                del lsq_words[word]
                    if qe2.sp_based and qe2.frame_key is not None:
                        b2 = lsq_sp.get(qe2.frame_key)
                        if b2 is not None:
                            if b2 and b2[0] is qe2:
                                del b2[0]
                            else:
                                try:
                                    b2.remove(qe2)
                                except ValueError:
                                    pass
                            if not b2:
                                del lsq_sp[qe2.frame_key]
                del q_entries[:drop]
                lsq_base = lsq.base + drop
                lsq.base = lsq_base
                ns2 = lsq_ns
                h2 = lsq._ns_head
                m2 = len(ns2)
                while h2 < m2 and ns2[h2].pos < lsq_base:
                    h2 += 1
                if h2 >= 64:
                    del ns2[:h2]
                    h2 = 0
                lsq._ns_head = h2
        if retired_lvaq:
            q_entries = lvaq_entries
            q_n = len(q_entries)
            drop = 0
            while drop < q_n and q_entries[drop].rob.state == 3:
                drop += 1
            if drop:
                for i2 in range(drop):
                    qe2 = q_entries[i2]
                    if not qe2.is_store:
                        continue
                    word = qe2.word
                    if word >= 0:
                        b2 = lvaq_words.get(word)
                        if b2 is not None:
                            try:
                                b2.remove(qe2)
                            except ValueError:
                                pass
                            if not b2:
                                del lvaq_words[word]
                    if qe2.sp_based and qe2.frame_key is not None:
                        b2 = lvaq_sp.get(qe2.frame_key)
                        if b2 is not None:
                            if b2 and b2[0] is qe2:
                                del b2[0]
                            else:
                                try:
                                    b2.remove(qe2)
                                except ValueError:
                                    pass
                            if not b2:
                                del lvaq_sp[qe2.frame_key]
                del q_entries[:drop]
                lvaq_base = lvaq.base + drop
                lvaq.base = lvaq_base
                ns2 = lvaq_ns
                h2 = lvaq._ns_head
                m2 = len(ns2)
                while h2 < m2 and ns2[h2].pos < lvaq_base:
                    h2 += 1
                if h2 >= 64:
                    del ns2[:h2]
                    h2 = 0
                lvaq._ns_head = h2
        return rob_count, committed_total, l1_avail, lvc_avail

    def finish():
        return {
            "stall.store_port": n_stall_store_port,
            "lvaq.store_combined": n_lvaq_store_combined,
            "_l1_fast": cm_l1_fast,
            "_lvc_fast": cm_lvc_fast,
            "_l1_busy": cm_l1_busy,
            "_lvc_busy": cm_lvc_busy,
        }

    return tick, finish
