"""Set-associative write-back caches (tag state only).

The timing simulator never needs data contents — the functional VM already
computed every value — so a cache here is pure tag/replacement state, which
keeps simulation fast.  Replacement is LRU; the write policy is write-back,
write-allocate (the SimpleScalar default the paper's simulator derives from).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import ConfigError
from repro.stats.counters import CounterSet
from repro.utils import is_power_of_two, log2_int


class CacheGeometry:
    """Size/shape parameters of one cache."""

    __slots__ = ("size_bytes", "assoc", "line_bytes", "num_sets",
                 "line_shift", "set_mask")

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int = 32):
        if not is_power_of_two(line_bytes):
            raise ConfigError(f"line size must be a power of two: {line_bytes}")
        if size_bytes <= 0 or size_bytes % (assoc * line_bytes):
            raise ConfigError(
                f"cache size {size_bytes} not divisible by "
                f"assoc*line ({assoc}x{line_bytes})"
            )
        num_sets = size_bytes // (assoc * line_bytes)
        if not is_power_of_two(num_sets):
            raise ConfigError(f"number of sets must be a power of two: {num_sets}")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self.line_shift = log2_int(line_bytes)
        self.set_mask = num_sets - 1

    def line_of(self, addr: int) -> int:
        """Line (block) number containing byte address *addr*."""
        return addr >> self.line_shift

    def set_of(self, line: int) -> int:
        """Set index of line number *line*."""
        return line & self.set_mask

    def __repr__(self) -> str:
        return (
            f"CacheGeometry({self.size_bytes}B, {self.assoc}-way, "
            f"{self.line_bytes}B lines, {self.num_sets} sets)"
        )


class Cache:
    """LRU set-associative cache over line tags.

    ``access`` returns True on a hit.  On a miss the line is allocated
    immediately (fill-on-miss, standard for latency-annotating simulators)
    and the evicted dirty victim, if any, is counted as a writeback.
    """

    def __init__(self, name: str, geometry: CacheGeometry,
                 counters: Optional[CounterSet] = None):
        self.name = name
        self.geom = geometry
        self.counters = counters if counters is not None else CounterSet()
        # Each set is an MRU-ordered list of line numbers.
        self._sets: List[List[int]] = [[] for _ in range(geometry.num_sets)]
        self._dirty: Set[int] = set()
        # Counter names precomputed (an f-string per access is measurable
        # on the simulator's hot path), bumped through the CounterSet's
        # backing dict; the lazy get() keeps never-bumped names absent.
        self._counts = self.counters._counts
        self._k_accesses = name + ".accesses"
        self._k_hits = name + ".hits"
        self._k_misses = name + ".misses"
        self._k_writebacks = name + ".writebacks"

    # -- queries -------------------------------------------------------------

    def access(self, addr: int, is_store: bool) -> bool:
        """Look up *addr*; allocate on miss.  Returns hit/miss."""
        geom = self.geom
        line = addr >> geom.line_shift
        ways = self._sets[line & geom.set_mask]
        counts = self._counts
        key = self._k_accesses
        counts[key] = counts.get(key, 0) + 1
        if line in ways:
            key = self._k_hits
            counts[key] = counts.get(key, 0) + 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_store:
                self._dirty.add(line)
            return True
        key = self._k_misses
        counts[key] = counts.get(key, 0) + 1
        self._fill(line, ways)
        if is_store:
            self._dirty.add(line)
        return False

    def _fill(self, line: int, ways: List[int]) -> None:
        if len(ways) >= self.geom.assoc:
            victim = ways.pop()
            if victim in self._dirty:
                self._dirty.discard(victim)
                counts = self._counts
                key = self._k_writebacks
                counts[key] = counts.get(key, 0) + 1
        ways.insert(0, line)

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding *addr*; returns True if it was resident."""
        geom = self.geom
        line = geom.line_of(addr)
        ways = self._sets[geom.set_of(line)]
        if line in ways:
            ways.remove(line)
            self._dirty.discard(line)
            return True
        return False

    def flush(self) -> int:
        """Empty the cache, returning the number of dirty lines written back."""
        dirty = len(self._dirty)
        self.counters.add(f"{self.name}.writebacks", dirty)
        for ways in self._sets:
            ways.clear()
        self._dirty.clear()
        return dirty

    # -- statistics -----------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.counters.get(f"{self.name}.accesses")

    @property
    def hits(self) -> int:
        """Lookups that hit."""
        return self.counters.get(f"{self.name}.hits")

    @property
    def misses(self) -> int:
        """Lookups that missed."""
        return self.counters.get(f"{self.name}.misses")

    @property
    def miss_rate(self) -> float:
        """misses / accesses (0.0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return f"Cache({self.name!r}, {self.geom!r})"
