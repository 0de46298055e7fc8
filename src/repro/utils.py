"""Small shared helpers used across the repro package."""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from typing import Iterable

WORD_BYTES = 4
"""Size of a machine word in bytes (32-bit ISA)."""


def is_power_of_two(value: int) -> bool:
    """Return True when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Return log2 of a power-of-two *value*, raising ValueError otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of *alignment* (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low *bits* of *value* as a two's-complement integer."""
    mask = (1 << bits) - 1
    value &= mask
    sign = 1 << (bits - 1)
    return (value ^ sign) - sign


def to_signed32(value: int) -> int:
    """Wrap *value* into the signed 32-bit range."""
    return sign_extend(value, 32)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; returns 0.0 for an empty input."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= v
    return product ** (1.0 / len(values))


def stable_hash(*parts: object) -> int:
    """A 31-bit hash of *parts* that is stable across interpreter runs.

    Python's builtin ``hash`` salts strings per process (PYTHONHASHSEED),
    so seeding an RNG from it makes "deterministic" traces differ from run
    to run — and poisons any persistent result cache.  This helper hashes
    the ``repr`` of the parts through SHA-256 instead.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[16:20], "little") & 0x7FFFFFFF


def write_atomic(path: str, payload: bytes) -> None:
    """Write *payload* to *path* so readers see the old file or the new one.

    The bytes go to a uniquely named temp file in the target directory,
    which ``os.replace`` then renames over *path*.  Concurrent writers of
    the same path never share a temp file, and the temp file is removed
    on any failure.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def make_rng(seed: int) -> random.Random:
    """Create a deterministic RNG for workload generation.

    All stochastic behaviour in the package flows through RNGs created here so
    that experiments are reproducible run to run.
    """
    return random.Random(seed)
