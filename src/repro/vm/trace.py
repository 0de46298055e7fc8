"""Dynamic instruction records and trace containers.

A :class:`DynInst` is one *committed* dynamic instruction: the interface
between the functional front end (VM or synthetic workload generator) and
the timing simulator.  Because the paper's machine model uses a perfect
I-cache and a perfect (oracle) branch predictor, timing simulation over the
committed stream is exactly equivalent to execution-driven simulation —
there is never any wrong-path work to model.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.isa.opcodes import FuClass
from repro.stats.histogram import Histogram

#: Sentinel register index meaning "no destination".
NO_REG = -1

# ``fu`` is stored as a plain int; comparing against these avoids an
# enum ``__eq__`` per query on the trace-construction path (observe()
# runs once per dynamic instruction).
_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


class DynInst:
    """One dynamic (committed) instruction.

    Attributes:
        fu: functional-unit class (``FuClass`` value, stored as int).
        dst: flat destination register index, or ``NO_REG``.
        srcs: flat source register indices.
        addr: effective byte address (memory ops only, else 0).
        size: access width in bytes (memory ops only, else 0).
        local_hint: compile-time classification presented to the hardware —
            True (local), False (non-local) or None (ambiguous; the
            access-region predictor decides at dispatch).
        is_local: ground truth — whether the address lies in the stack
            region.  Used for predictor verification and statistics.
        sp_based: the access is addressed off ``$sp``/``$fp`` with a static
            offset, so the LVAQ may match it by (frame, offset) *before*
            effective-address computation (fast data forwarding).
        frame_id: unique id of the activation record being accessed.
        offset: static offset from the frame base (fast-forwarding key).
        pc: static instruction index (predictor table index).
    """

    __slots__ = (
        "fu", "dst", "srcs", "addr", "size", "local_hint", "is_local",
        "sp_based", "frame_id", "offset", "pc",
    )

    def __init__(
        self,
        fu: int,
        dst: int = NO_REG,
        srcs: Tuple[int, ...] = (),
        addr: int = 0,
        size: int = 0,
        local_hint: Optional[bool] = None,
        is_local: bool = False,
        sp_based: bool = False,
        frame_id: int = 0,
        offset: int = 0,
        pc: int = 0,
    ):
        self.fu = fu
        self.dst = dst
        self.srcs = srcs
        self.addr = addr
        self.size = size
        self.local_hint = local_hint
        self.is_local = is_local
        self.sp_based = sp_based
        self.frame_id = frame_id
        self.offset = offset
        self.pc = pc

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self.fu == _LOAD

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self.fu == _STORE

    @property
    def is_mem(self) -> bool:
        """True for loads and stores."""
        return self.fu == _LOAD or self.fu == _STORE

    def __repr__(self) -> str:
        kind = FuClass(self.fu).name
        if self.is_mem:
            return (
                f"DynInst({kind}, addr={self.addr:#x}, local={self.is_local}, "
                f"hint={self.local_hint}, frame={self.frame_id})"
            )
        return f"DynInst({kind}, dst={self.dst}, srcs={self.srcs})"


class TraceStats:
    """Aggregate statistics over a dynamic instruction stream."""

    def __init__(self) -> None:
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.local_loads = 0
        self.local_stores = 0
        self.sp_based_refs = 0
        self.ambiguous_refs = 0
        self.calls = 0
        self.frame_sizes = Histogram()
        self.max_call_depth = 0

    def observe(self, inst: DynInst) -> None:
        """Fold one dynamic instruction into the statistics."""
        self.instructions += 1
        fu = inst.fu
        if fu == _LOAD:
            self.loads += 1
            if inst.is_local:
                self.local_loads += 1
        elif fu == _STORE:
            self.stores += 1
            if inst.is_local:
                self.local_stores += 1
        else:
            return
        if inst.sp_based:
            self.sp_based_refs += 1
        if inst.local_hint is None:
            self.ambiguous_refs += 1

    @property
    def mem_refs(self) -> int:
        """Total loads + stores."""
        return self.loads + self.stores

    @property
    def local_refs(self) -> int:
        """Loads + stores whose address is in the stack region."""
        return self.local_loads + self.local_stores

    @property
    def local_fraction(self) -> float:
        """Fraction of all memory references that are local."""
        return self.local_refs / self.mem_refs if self.mem_refs else 0.0

    @property
    def load_fraction(self) -> float:
        """Loads as a fraction of all instructions."""
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        """Stores as a fraction of all instructions."""
        return self.stores / self.instructions if self.instructions else 0.0


class Trace:
    """A dynamic instruction stream plus its aggregate statistics."""

    def __init__(self, name: str = "<trace>"):
        self.name = name
        self.insts: List[DynInst] = []
        self.stats = TraceStats()

    def append(self, inst: DynInst) -> None:
        """Append one dynamic instruction, updating statistics."""
        self.insts.append(inst)
        self.stats.observe(inst)

    def extend(self, insts: Iterable[DynInst]) -> None:
        """Append many dynamic instructions."""
        for inst in insts:
            self.append(inst)

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self):
        return iter(self.insts)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self.insts)} insts)"
