"""Sparse word-addressed data memory for the functional VM.

Words hold either signed 32-bit integers or Python floats (the VM does not
reinterpret float bit patterns, so storing floats natively is both simpler
and faster).  Byte accesses are supported on integer-valued words only.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.errors import VmError
from repro.utils import sign_extend, to_signed32

Word = Union[int, float]


class SparseMemory:
    """A dictionary-backed flat memory, zero-initialised.

    *words* seeds the memory with an address -> word dict, which the
    memory then owns (callers pass a copy).
    """

    __slots__ = ("_words",)

    def __init__(self, words: Optional[Dict[int, Word]] = None) -> None:
        self._words: Dict[int, Word] = {} if words is None else words

    def load_word(self, addr: int) -> Word:
        """Read the aligned word containing *addr*."""
        if addr < 0:
            raise VmError(f"negative address {addr:#x}")
        if addr & 3:
            raise VmError(f"unaligned word load at {addr:#x}")
        return self._words.get(addr, 0)

    def store_word(self, addr: int, value: Word) -> None:
        """Write a word; integers are wrapped to signed 32-bit."""
        if addr < 0:
            raise VmError(f"negative address {addr:#x}")
        if addr & 3:
            raise VmError(f"unaligned word store at {addr:#x}")
        if isinstance(value, float):
            self._words[addr] = value
        else:
            self._words[addr] = to_signed32(value)

    def load_byte(self, addr: int) -> int:
        """Read one byte, sign-extended to an int."""
        if addr < 0:
            raise VmError(f"negative address {addr:#x}")
        word = self._words.get(addr & ~3, 0)
        if isinstance(word, float):
            raise VmError(f"byte load from float-valued word at {addr:#x}")
        shift = (addr & 3) * 8
        return sign_extend((word >> shift) & 0xFF, 8)

    def store_byte(self, addr: int, value: int) -> None:
        """Write one byte into its containing word."""
        if addr < 0:
            raise VmError(f"negative address {addr:#x}")
        base = addr & ~3
        word = self._words.get(base, 0)
        if isinstance(word, float):
            raise VmError(f"byte store into float-valued word at {addr:#x}")
        shift = (addr & 3) * 8
        mask = 0xFF << shift
        raw = (word & 0xFFFFFFFF) & ~mask | ((value & 0xFF) << shift)
        self._words[base] = to_signed32(raw)

    def footprint_words(self) -> int:
        """Number of distinct words ever written."""
        return len(self._words)

    def clear(self) -> None:
        """Reset every word to zero."""
        self._words.clear()
