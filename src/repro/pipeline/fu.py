"""Functional-unit pools.

The base machine (paper Table 1) has 16 integer ALUs, 16 FP ALUs, 4 integer
MULT/DIV units and 4 FP MULT/DIV units.  ALUs are fully pipelined, so they
are a per-cycle issue budget, which the issue stage keeps as local
integers refilled from :attr:`FuPool.ialu` / :attr:`FuPool.falu`.
Multiplies are pipelined on the MULT/DIV units; divides occupy a unit for
their full latency (R10000 behaviour), so those pools track per-unit
busy-until times here.

Branches, address generation for loads/stores, and syscalls use integer-ALU
issue slots.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.isa.opcodes import FuClass, LATENCY, LATENCY_BY_INT

# Issue-resource kind per int(FuClass): which pool a class draws from.
# Indexed with a plain int so the per-issue dispatch below is a list load
# and integer compares instead of a chain of enum comparisons.
_IALU_KIND, _FALU_KIND, _IMULT_KIND, _FMULT_KIND = 0, 1, 2, 3
_KIND = [_IALU_KIND] * len(FuClass)
_KIND[int(FuClass.FADD)] = _FALU_KIND
_KIND[int(FuClass.IMULT)] = _IMULT_KIND
_KIND[int(FuClass.IDIV)] = _IMULT_KIND
_KIND[int(FuClass.FMUL)] = _FMULT_KIND
_KIND[int(FuClass.FDIV)] = _FMULT_KIND

# Cycles a MULT/DIV unit stays occupied: 1 for pipelined multiplies,
# the full latency for divides (R10000 behaviour).
_OCCUPANCY = [1] * len(FuClass)
_OCCUPANCY[int(FuClass.IDIV)] = LATENCY_BY_INT[int(FuClass.IDIV)]
_OCCUPANCY[int(FuClass.FDIV)] = LATENCY_BY_INT[int(FuClass.FDIV)]

#: Public view of the per-class resource kind, for the issue stage, which
#: keeps the pipelined-ALU budgets itself and calls :meth:`FuPool.try_take`
#: only for the MULT/DIV unit pools.
FU_KIND = _KIND


class _UnitPool:
    """A pool of units with individual busy-until times."""

    __slots__ = ("free_at",)

    def __init__(self, count: int):
        self.free_at: List[int] = [0] * count

    def try_take(self, now: int, occupy_until: int) -> bool:
        free_at = self.free_at
        for i, t in enumerate(free_at):
            if t <= now:
                free_at[i] = occupy_until
                return True
        return False


class FuPool:
    """All functional units of the machine."""

    def __init__(self, ialu: int = 16, falu: int = 16,
                 imultdiv: int = 4, fmultdiv: int = 4):
        if min(ialu, falu, imultdiv, fmultdiv) <= 0:
            raise ConfigError("every functional-unit count must be positive")
        self.ialu = ialu
        self.falu = falu
        self._imult = _UnitPool(imultdiv)
        self._fmult = _UnitPool(fmultdiv)

    def try_take(self, fu: int, now: int) -> bool:
        """Reserve a MULT/DIV unit for an op of class *fu* issuing at *now*.

        Multiplies are pipelined (one-cycle occupancy); divides hold the
        unit for their full latency.
        """
        kind = _KIND[fu]
        if kind == _IMULT_KIND:
            return self._imult.try_take(now, now + _OCCUPANCY[fu])
        if kind == _FMULT_KIND:
            return self._fmult.try_take(now, now + _OCCUPANCY[fu])
        raise ConfigError(f"functional-unit class {fu} has no unit pool")

    def __repr__(self) -> str:
        return (
            f"FuPool(ialu={self.ialu}, falu={self.falu}, "
            f"imultdiv={len(self._imult.free_at)}, "
            f"fmultdiv={len(self._fmult.free_at)})"
        )
