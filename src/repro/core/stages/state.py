"""Shared per-run state for the staged micro-architecture kernel.

One :class:`CoreState` is built per ``Processor.run`` call.  It gathers
every structure the stage components share — the window (ROB, issue
lanes, completion calendar), the memory system, the functional units,
and the configuration scalars — so each stage's ``bind`` factory reads
its working set from one place and closes over it.

The containers referenced here are *the* canonical objects: stages
mutate them in place (the calendar ring, the issue lanes, the memory
queues' internal index lists), which is what lets five independent
closures cooperate without a message-passing layer.  Scalar per-cycle
state (port budgets, dispatch index, occupancy counts) is owned by the
kernel loop and threaded through tick arguments/returns instead — see
``docs/timing_model.md`` for the full ownership map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.isa.opcodes import LATENCY_BY_INT
from repro.mem.ports import PortArbiter
from repro.pipeline.rob import RobEntry

#: Calendar ring size; must exceed every fixed execution latency so that
#: only memory events (whose distance is unbounded behind a busy bus) can
#: overflow.  Power of two so the slot index is a mask.
RING = 256
MASK = RING - 1
assert max(LATENCY_BY_INT) < RING


class CoreState:
    """Everything the stage components share for one run."""

    def __init__(self, processor, insts: Sequence):
        config = processor.config
        self.processor = processor
        self.insts = insts
        self.total = len(insts)

        # -- configuration scalars ------------------------------------
        self.width = config.issue_width
        self.rob_size = config.rob_size
        self.decoupled = config.decoupled
        self.fast_fwd = config.decoupled and config.decouple.fast_forwarding
        self.combining = config.decouple.combining
        self.mispredict_penalty = config.decouple.mispredict_penalty

        # -- window structures ----------------------------------------
        self.rob_entries = processor.rob.entries
        self.ready_fifo = processor._ready_fifo
        self.woken = processor._issuable
        self.ring = processor._ring
        self.overflow = processor._overflow
        self.producer = processor._producer
        # Entries whose operands are complete but not yet forwardable
        # (earliest > now) sleep here, keyed by that cycle, instead of
        # churning through the issue lanes every cycle.
        self.sleep: Dict[int, List[RobEntry]] = {}
        # Stores issued this cycle, completing next cycle (writeback).
        self.store_done: List[RobEntry] = []
        # Committed ROB entries recycled by dispatch; an entry still
        # sitting stale in an issue lane (in_issuable) is not recycled.
        self.free_entries: List[RobEntry] = []

        # -- execution resources --------------------------------------
        self.fus = processor.fus
        self.steer = processor.partitioner.steer

        # -- frontend --------------------------------------------------
        self.frontend_config = config.frontend

        # -- memory system --------------------------------------------
        self.lsq = processor.lsq
        self.lvaq = processor.lvaq
        hierarchy = processor.hierarchy
        self.hierarchy = hierarchy
        l1_ports = hierarchy.l1_ports
        lvc_ports = hierarchy.lvc_ports
        self.l1_ports = l1_ports
        self.lvc_ports = lvc_ports
        # Simple arbiters are pure per-cycle budgets the kernel tracks in
        # local integers; any subclass keeps its method calls.  The exact
        # type check is deliberate.
        self.l1_simple = type(l1_ports) is PortArbiter
        self.have_lvc = lvc_ports is not None
        self.lvc_simple = self.have_lvc and type(lvc_ports) is PortArbiter

        # -- first-level-cache inline fast path -----------------------
        # When the addressed line has no live outstanding fill and the
        # tags hit, an access is a counter bump plus an LRU move; any
        # other case falls back to the full ``ready_*`` path BEFORE any
        # state is touched, so the fallback replays the lookup exactly.
        self.counts = processor.counters._counts
        l1_cache = hierarchy.l1
        self.l1_sets = l1_cache._sets
        self.l1_shift = l1_cache.geom.line_shift
        self.l1_smask = l1_cache.geom.set_mask
        self.l1_dirty = l1_cache._dirty
        self.l1_ka = l1_cache._k_accesses
        self.l1_kh = l1_cache._k_hits
        self.l1_pending = hierarchy.l1_mshr._pending
        self.l1_hitlat = hierarchy.config.l1_hit_latency
        lvc_cache = hierarchy.lvc
        if lvc_cache is not None:
            self.lvc_sets = lvc_cache._sets
            self.lvc_shift = lvc_cache.geom.line_shift
            self.lvc_smask = lvc_cache.geom.set_mask
            self.lvc_dirty = lvc_cache._dirty
            self.lvc_ka = lvc_cache._k_accesses
            self.lvc_kh = lvc_cache._k_hits
            self.lvc_pending = hierarchy.lvc_mshr._pending
            self.lvc_hitlat = hierarchy.config.lvc_hit_latency
        else:
            self.lvc_sets = self.l1_sets
            self.lvc_shift = self.lvc_smask = 0
            self.lvc_dirty = self.l1_dirty
            self.lvc_ka = self.lvc_kh = ""
            self.lvc_pending = self.l1_pending
            self.lvc_hitlat = 0
