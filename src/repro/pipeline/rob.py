"""The reorder buffer (Register Update Unit in Sohi's terminology).

Entries live from dispatch to commit.  Each entry tracks the dataflow state
of one dynamic instruction: how many source operands are still outstanding,
which later entries consume its result, and when its result becomes
available.  Register renaming falls out of the ``producer`` map kept by the
processor: at dispatch each destination register is re-bound to the new
entry, so anti/output dependences never stall anything.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import SimulationError
from repro.vm.trace import DynInst

# Entry lifecycle states.
DISPATCHED = 0
ISSUED = 1
COMPLETED = 2
COMMITTED = 3

_STATE_NAMES = {
    DISPATCHED: "DISPATCHED",
    ISSUED: "ISSUED",
    COMPLETED: "COMPLETED",
    COMMITTED: "COMMITTED",
}


class RobEntry:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "seq", "inst", "state", "pending", "earliest", "issue_time",
        "complete_time", "consumers", "mem", "in_issuable",
    )

    def __init__(self, seq: int, inst: DynInst):
        self.seq = seq
        self.inst = inst
        self.state = DISPATCHED
        self.pending = 0  # outstanding source operands
        self.earliest = 0  # earliest cycle this entry may issue
        self.issue_time = -1
        self.complete_time = -1
        self.consumers: List["RobEntry"] = []
        self.mem = None  # MemQueueEntry for loads/stores
        self.in_issuable = False

    def __repr__(self) -> str:
        return (
            f"RobEntry(seq={self.seq}, {_STATE_NAMES[self.state]}, "
            f"pending={self.pending})"
        )


class Rob:
    """A bounded in-order window of :class:`RobEntry`."""

    def __init__(self, size: int):
        if size <= 0:
            raise SimulationError("ROB size must be positive")
        self.size = size
        # Public so the processor hot loop can bind the deque directly;
        # mutate only through push/pop_head unless you are the processor.
        self.entries: Deque[RobEntry] = deque()

    @property
    def full(self) -> bool:
        """True when no dispatch slot is free."""
        return len(self.entries) >= self.size

    def push(self, entry: RobEntry) -> None:
        """Append a newly dispatched entry; raises when full."""
        if self.full:
            raise SimulationError("dispatch into a full ROB")
        self.entries.append(entry)

    def head(self) -> Optional[RobEntry]:
        """The oldest in-flight entry, or None."""
        return self.entries[0] if self.entries else None

    def pop_head(self) -> RobEntry:
        """Retire the oldest entry."""
        if not self.entries:
            raise SimulationError("commit from an empty ROB")
        entry = self.entries.popleft()
        entry.state = COMMITTED
        return entry

    def __repr__(self) -> str:
        return f"Rob({len(self.entries)}/{self.size})"
