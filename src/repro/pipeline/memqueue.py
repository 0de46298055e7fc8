"""Memory access queues: the data the LSQ and LVAQ rules run on.

One :class:`MemQueue` instance is the conventional load/store queue (LSQ);
a second instance, fed only with local-variable accesses, is the paper's
local variable access queue (LVAQ).  Both follow the sim-outorder
discipline:

* a load may go to memory only when every earlier store *in its own queue*
  has a known address (conservative disambiguation);
* a load whose address matches an earlier store's is satisfied by
  store-to-load forwarding from the youngest such store, with a one-cycle
  delay.

The LVAQ additionally supports the paper's **fast data forwarding**:
``$sp``-relative accesses carry a (frame, offset) key that is known at
dispatch, before effective-address computation, so a store→load pair can be
matched (and non-matching sp-relative stores disambiguated) without waiting
for address generation.

This module holds only the data.  The rules live in the stage sources of
:mod:`repro.core.stages` (dispatch appends, issue fills addresses, the
memory stage disambiguates and forwards, commit retires), which the
generated kernel runs, and in ``_RefMemQueue`` of
:mod:`repro.perf.reference`, the frozen oracle the golden suite pins the
kernel to.  The queue rules are tested through those cores with
hand-built micro-traces (``tests/pipeline/test_memqueue.py``).

Indexing
--------

The queue keeps incremental indexes so the per-cycle memory stage does
not rescan every resident entry.  The stages bind these lists once per
run and keep them canonical:

* ``entries`` / ``base`` -- the age-ordered residents; dispatch appends,
  commit drops the committed prefix and advances ``base``;
* ``_loads`` / ``_load_head`` -- age-ordered loads with a compaction
  cursor past the serviced prefix;
* ``_unknown_stores`` / ``_us_head`` and ``_unknown_nonsp_stores`` /
  ``_un_head`` -- append-ordered stores with lazy cursors to the oldest
  unknown-address one (a store's address never becomes unknown again, so
  a cursor only moves forward);
* ``_nonsp_stores`` / ``_ns_head`` and ``_sp_stores`` -- the two store
  populations fast forwarding compares;
* ``_stores_by_word`` -- known-address stores bucketed by word, the
  forwarding lookup;
* ``_addr_ready`` -- loads bucketed by the cycle their address becomes
  known, filled by issue's address generation and drained by the memory
  stage's event-driven eligibility walk.

The cursors are compacted once they pass 64 entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.pipeline.rob import RobEntry

#: Sentinel "no unknown store" sequence number.
INF_SEQ = 1 << 62


class MemQueueEntry:
    """One load or store resident in a memory access queue."""

    __slots__ = (
        "rob", "is_store", "word", "line", "addr_known_time",
        "dispatch_time", "serviced", "sp_based", "frame_key",
        "use_lvc", "penalty", "pos",
    )

    def __init__(self, rob: RobEntry, is_store: bool, dispatch_time: int,
                 sp_based: bool = False,
                 frame_key: Optional[Tuple[int, int]] = None,
                 use_lvc: bool = False, penalty: int = 0):
        self.rob = rob
        self.is_store = is_store
        self.word = -1  # addr >> 2, filled at address generation
        self.line = -1  # line number, filled at address generation
        self.addr_known_time = -1  # -1 while the address is unknown
        self.dispatch_time = dispatch_time
        self.serviced = False
        self.sp_based = sp_based
        self.frame_key = frame_key
        self.use_lvc = use_lvc
        self.penalty = penalty  # extra cycles (classification mispredict)
        self.pos = -1  # queue-lifetime position, assigned at dispatch

    @property
    def addr_known(self) -> bool:
        """True once address generation has completed."""
        return self.addr_known_time >= 0

    def __repr__(self) -> str:
        kind = "ST" if self.is_store else "LD"
        return (
            f"MemQueueEntry({kind}, seq={self.rob.seq}, "
            f"addr_known={self.addr_known}, serviced={self.serviced})"
        )


class MemQueue:
    """A bounded, age-ordered queue of in-flight memory operations."""

    def __init__(self, size: int, name: str = "lsq"):
        if size <= 0:
            raise SimulationError("memory queue size must be positive")
        self.size = size
        self.name = name
        self.entries: List[MemQueueEntry] = []
        #: ``pos`` of ``entries[0]`` — ``entries[e.pos - base] is e``.
        self.base = 0
        #: Loads the memory stage still has to service; the kernel owns
        #: the count during a run and writes it back here.
        self.unserviced_loads = 0
        self._loads: List[MemQueueEntry] = []
        self._load_head = 0
        self._unknown_stores: List[MemQueueEntry] = []
        self._us_head = 0
        self._unknown_nonsp_stores: List[MemQueueEntry] = []
        self._un_head = 0
        self._nonsp_stores: List[MemQueueEntry] = []
        self._ns_head = 0
        self._stores_by_word: Dict[int, List[MemQueueEntry]] = {}
        self._sp_stores: Dict[Tuple[int, int], List[MemQueueEntry]] = {}
        self._addr_ready: Dict[int, List[MemQueueEntry]] = {}

    def __repr__(self) -> str:
        return f"MemQueue({self.name!r}, {len(self.entries)}/{self.size})"
