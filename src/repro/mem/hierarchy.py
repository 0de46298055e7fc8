"""The full data-memory hierarchy of the modelled processor.

Two first-level structures sit side by side, exactly as in Figure 1(b) of
the paper:

* the **L1 data cache** (32 KB, 2-way, 2-cycle hit in the base model), and
* the optional **local variable cache (LVC)** (2 KB, direct-mapped,
  1-cycle hit),

both lock-up free (MSHRs) and both connected to a shared **L2 bus**; behind
it a unified **L2** (512 KB, 4-way, 12-cycle) and 50-cycle main memory.

The hierarchy is latency-annotating rather than event-driven: an access
immediately returns the cycle at which its data will be available, with bus
queueing folded in via a busy-until clock.  This is the standard technique
for fast cycle simulators and preserves every effect the paper measures
(port contention, miss latency, L2 traffic).

Both first-level structures take their port arbiter from
:mod:`repro.mem.ports` (``l1_port_policy`` / ``lvc_port_policy``); the
``ideal`` default reproduces the paper's assumption bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigError
from repro.mem.cache import Cache, CacheGeometry
from repro.mem.ports import PORT_POLICIES, PortArbiter, make_ports
from repro.stats.counters import CounterSet


class MshrFile:
    """Miss status holding registers (lockup-free cache support).

    Both L1 caches in the paper are lock-up free.  The MSHR file tracks
    lines with outstanding fills; a second miss to an in-flight line merges
    into the existing entry instead of issuing a new L2 request.
    """

    __slots__ = ("entries", "_pending", "merged", "allocations", "full_events")

    def __init__(self, entries: int = 8):
        if entries <= 0:
            raise ConfigError(f"MSHR count must be positive: {entries}")
        self.entries = entries
        self._pending: Dict[int, int] = {}  # line -> fill-ready cycle
        self.merged = 0
        self.allocations = 0
        self.full_events = 0

    def lookup(self, line: int, now: int) -> Optional[int]:
        """Ready time of an in-flight fill of *line*, or None.

        A hit here merges the request into the existing entry.
        """
        pending = self._pending
        if not pending:
            return None
        done = [ln for ln, t in pending.items() if t <= now]
        for ln in done:
            del pending[ln]
        ready = pending.get(line)
        if ready is not None:
            self.merged += 1
        return ready

    def allocate(self, line: int, ready: int, now: int) -> bool:
        """Track a new outstanding fill; False when the file is full."""
        pending = self._pending
        if pending:
            done = [ln for ln, t in pending.items() if t <= now]
            for ln in done:
                del pending[ln]
        if len(pending) >= self.entries:
            self.full_events += 1
            return False
        pending[line] = ready
        self.allocations += 1
        return True

    def __repr__(self) -> str:
        return f"MshrFile({len(self._pending)}/{self.entries} in flight)"


class MemSystemConfig:
    """Parameters of the data-memory hierarchy (paper Table 1 defaults)."""

    def __init__(
        self,
        l1_ports: int = 2,
        lvc_ports: int = 0,
        l1_size: int = 32 * 1024,
        l1_assoc: int = 2,
        l1_hit_latency: int = 2,
        lvc_size: int = 2 * 1024,
        lvc_assoc: int = 1,
        lvc_hit_latency: int = 1,
        line_bytes: int = 32,
        l2_size: int = 512 * 1024,
        l2_assoc: int = 4,
        l2_latency: int = 12,
        mem_latency: int = 50,
        mshr_entries: int = 8,
        bus_occupancy: int = 1,
        l1_port_policy: str = "ideal",
        lvc_port_policy: str = "ideal",
        l1_banks: int = 0,
        lvc_banks: int = 0,
    ):
        if l1_ports <= 0:
            raise ConfigError("the L1 data cache needs at least one port")
        if lvc_ports < 0:
            raise ConfigError("LVC port count must be non-negative")
        for label, policy in (("l1_port_policy", l1_port_policy),
                              ("lvc_port_policy", lvc_port_policy)):
            if policy not in PORT_POLICIES:
                raise ConfigError(
                    f"unknown {label} {policy!r}; "
                    f"known: {', '.join(sorted(PORT_POLICIES))}")
        if l1_banks < 0 or lvc_banks < 0:
            raise ConfigError("bank counts must be non-negative")
        self.l1_ports = l1_ports
        self.lvc_ports = lvc_ports
        self.l1_size = l1_size
        self.l1_assoc = l1_assoc
        self.l1_hit_latency = l1_hit_latency
        self.lvc_size = lvc_size
        self.lvc_assoc = lvc_assoc
        self.lvc_hit_latency = lvc_hit_latency
        self.line_bytes = line_bytes
        self.l2_size = l2_size
        self.l2_assoc = l2_assoc
        self.l2_latency = l2_latency
        self.mem_latency = mem_latency
        self.mshr_entries = mshr_entries
        self.bus_occupancy = bus_occupancy
        self.l1_port_policy = l1_port_policy
        self.lvc_port_policy = lvc_port_policy
        self.l1_banks = l1_banks
        self.lvc_banks = lvc_banks

    @property
    def lvc_enabled(self) -> bool:
        """True when the configuration includes an LVC (M > 0)."""
        return self.lvc_ports > 0

    def notation(self) -> str:
        """The paper's ``(N+M)`` configuration notation."""
        return f"({self.l1_ports}+{self.lvc_ports})"

    def __repr__(self) -> str:
        return f"MemSystemConfig{self.notation()}"


class MemoryHierarchy:
    """L1 + LVC + shared L2 bus + L2 + main memory."""

    def __init__(self, config: MemSystemConfig,
                 counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self.l1 = Cache(
            "l1",
            CacheGeometry(config.l1_size, config.l1_assoc, config.line_bytes),
            self.counters,
        )
        self.l2 = Cache(
            "l2",
            CacheGeometry(config.l2_size, config.l2_assoc, config.line_bytes),
            self.counters,
        )
        self.lvc: Optional[Cache] = None
        self.lvc_mshr: Optional[MshrFile] = None
        self.lvc_ports: Optional[PortArbiter] = None
        if config.lvc_enabled:
            self.lvc = Cache(
                "lvc",
                CacheGeometry(config.lvc_size, config.lvc_assoc,
                              config.line_bytes),
                self.counters,
            )
            self.lvc_mshr = MshrFile(config.mshr_entries)
            self.lvc_ports = make_ports(config.lvc_port_policy,
                                        config.lvc_ports, config.lvc_banks)
        self.l1_mshr = MshrFile(config.mshr_entries)
        self.l1_ports = make_ports(config.l1_port_policy, config.l1_ports,
                                   config.l1_banks)
        self._bus_busy_until = 0
        #: When set (mix runs), the L2 + bus live in a
        #: :class:`repro.mem.shared.SharedMemory` and ``_miss`` delegates
        #: to it; the private ``l2`` tags above stay untouched.
        self.shared = None
        #: Hit/miss of the most recent first-level access (set by ``_ready``).
        self.last_hit = False

    # -- access paths ----------------------------------------------------------

    def ready_l1(self, addr: int, is_store: bool, now: int) -> int:
        """One L1 transaction (the port must already be reserved): returns
        the fill-ready cycle and leaves hit/miss in ``last_hit``."""
        return self._ready(self.l1, self.l1_mshr,
                           self.config.l1_hit_latency, addr, is_store, now)

    def ready_lvc(self, addr: int, is_store: bool, now: int) -> int:
        """One LVC transaction, as :meth:`ready_l1`."""
        if self.lvc is None or self.lvc_mshr is None:
            raise ConfigError("this configuration has no LVC")
        return self._ready(self.lvc, self.lvc_mshr,
                           self.config.lvc_hit_latency, addr, is_store, now)

    def _ready(self, cache: Cache, mshr: MshrFile, hit_latency: int,
               addr: int, is_store: bool, now: int) -> int:
        line = addr >> cache.geom.line_shift
        pending = mshr.lookup(line, now)
        if cache.access(addr, is_store):
            if pending is not None:
                # Secondary miss: tags were filled at primary-miss time but
                # the line is still in flight — merge into the MSHR entry.
                self.last_hit = False
                t = now + hit_latency
                return pending if pending > t else t
            self.last_hit = True
            return now + hit_latency
        self.last_hit = False
        ready = self._miss(now + hit_latency, addr, is_store)
        if not mshr.allocate(line, ready, now):
            # MSHR file full: the request queues behind the oldest fill.
            ready += 1
        return ready

    def _miss(self, start: int, addr: int, is_store: bool) -> int:
        """Latency path through the shared bus, L2, and main memory."""
        if self.shared is not None:
            return self.shared.miss(self, start, addr, is_store)
        bus_at = max(start, self._bus_busy_until)
        self._bus_busy_until = bus_at + self.config.bus_occupancy
        self.counters.add("bus.transactions")
        if self.l2.access(addr, is_store):
            return bus_at + self.config.l2_latency
        return bus_at + self.config.l2_latency + self.config.mem_latency

    def __repr__(self) -> str:
        return f"MemoryHierarchy{self.config.notation()}"
