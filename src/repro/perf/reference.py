"""The frozen pre-optimization simulation core (golden reference).

This module is a verbatim capture of ``repro.core.processor`` (and the
scan-based ``repro.pipeline.memqueue`` / ``repro.pipeline.fu`` logic it
relied on) as it stood *before* the profile-guided optimization of the
cycle-stepped core.  It exists so the golden-equivalence harness
(:mod:`repro.perf.golden`) can prove — workload by workload, config by
config — that the optimized :class:`repro.core.processor.Processor`
reproduces the seed model's exact cycle counts and counter values.

Do **not** optimize this file.  It is deliberately the slow, obviously
correct O(queue)-rescan implementation: every per-cycle structure is
recomputed from first principles.  If the live core and this reference
ever disagree, the live core is wrong (or the machine *model* changed, in
which case this file must be re-frozen in the same commit and the change
called out as a semantics change, never slipped in as an "optimization").

Shared with the live core (deliberately): :class:`RobEntry`,
:class:`MemQueueEntry`, the port arbiters, and the stream partitioner —
pure state holders whose semantics the optimization did not touch.  The
memory hierarchy (cache tags, MSHRs, latency chain) IS vendored below
(``_RefCache`` / ``_RefMshrFile`` / ``_RefMemoryHierarchy``): the
optimization pass rewrote those hot paths too, so sharing them would
both weaken the equivalence check and credit the reference with
speedups that belong to the optimized build.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError, SimulationError
from repro.isa.opcodes import FuClass, LATENCY
from repro.core.classify import StreamPartitioner
from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import MemSystemConfig
from repro.mem.ports import PortArbiter, make_ports
from repro.pipeline.memqueue import INF_SEQ, MemQueueEntry
from repro.pipeline.rob import (
    COMMITTED,
    COMPLETED,
    DISPATCHED,
    ISSUED,
    Rob,
    RobEntry,
)
from repro.stats.counters import CounterSet
from repro.vm.trace import DynInst

_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


class _RefCache:
    """Seed-era tag cache: counter names rebuilt (f-string) per access."""

    def __init__(self, name: str, geometry: CacheGeometry,
                 counters: Optional[CounterSet] = None):
        self.name = name
        self.geom = geometry
        self.counters = counters if counters is not None else CounterSet()
        self._sets: List[List[int]] = [[] for _ in range(geometry.num_sets)]
        self._dirty: Set[int] = set()

    def access(self, addr: int, is_store: bool) -> bool:
        geom = self.geom
        line = geom.line_of(addr)
        ways = self._sets[geom.set_of(line)]
        counters = self.counters
        counters.add(f"{self.name}.accesses")
        if line in ways:
            counters.add(f"{self.name}.hits")
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_store:
                self._dirty.add(line)
            return True
        counters.add(f"{self.name}.misses")
        self._fill(line, ways)
        if is_store:
            self._dirty.add(line)
        return False

    def _fill(self, line: int, ways: List[int]) -> None:
        if len(ways) >= self.geom.assoc:
            victim = ways.pop()
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.counters.add(f"{self.name}.writebacks")
        ways.insert(0, line)


class _RefMshrFile:
    """Seed-era MSHR file: eager expiry scan on every operation."""

    def __init__(self, entries: int = 8):
        if entries <= 0:
            raise ConfigError(f"MSHR count must be positive: {entries}")
        self.entries = entries
        self._pending: Dict[int, int] = {}
        self.merged = 0
        self.allocations = 0
        self.full_events = 0

    def _expire(self, now: int) -> None:
        if self._pending:
            done = [line for line, t in self._pending.items() if t <= now]
            for line in done:
                del self._pending[line]

    def lookup(self, line: int, now: int) -> Optional[int]:
        self._expire(now)
        ready = self._pending.get(line)
        if ready is not None:
            self.merged += 1
        return ready

    def allocate(self, line: int, ready: int, now: int) -> bool:
        self._expire(now)
        if len(self._pending) >= self.entries:
            self.full_events += 1
            return False
        self._pending[line] = ready
        self.allocations += 1
        return True


class AccessResult:
    """Outcome of one first-level access."""

    __slots__ = ("ready", "hit")

    def __init__(self, ready: int, hit: bool):
        self.ready = ready
        self.hit = hit

    def __repr__(self) -> str:
        return f"AccessResult(ready={self.ready}, hit={self.hit})"


class _RefMemoryHierarchy:
    """Seed-era memory hierarchy: result objects on every access."""

    def __init__(self, config: MemSystemConfig,
                 counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self.l1 = _RefCache(
            "l1",
            CacheGeometry(config.l1_size, config.l1_assoc, config.line_bytes),
            self.counters,
        )
        self.l2 = _RefCache(
            "l2",
            CacheGeometry(config.l2_size, config.l2_assoc, config.line_bytes),
            self.counters,
        )
        self.lvc: Optional[_RefCache] = None
        self.lvc_mshr: Optional[_RefMshrFile] = None
        self.lvc_ports: Optional[PortArbiter] = None
        if config.lvc_enabled:
            self.lvc = _RefCache(
                "lvc",
                CacheGeometry(config.lvc_size, config.lvc_assoc,
                              config.line_bytes),
                self.counters,
            )
            self.lvc_mshr = _RefMshrFile(config.mshr_entries)
            self.lvc_ports = PortArbiter(config.lvc_ports)
        self.l1_mshr = _RefMshrFile(config.mshr_entries)
        self.l1_ports = make_ports(config.l1_port_policy, config.l1_ports)
        self._bus_busy_until = 0

    def new_cycle(self) -> None:
        self.l1_ports.new_cycle()
        if self.lvc_ports is not None:
            self.lvc_ports.new_cycle()

    def access_l1(self, addr: int, is_store: bool, now: int) -> AccessResult:
        return self._access(self.l1, self.l1_mshr,
                            self.config.l1_hit_latency, addr, is_store, now)

    def access_lvc(self, addr: int, is_store: bool, now: int) -> AccessResult:
        if self.lvc is None or self.lvc_mshr is None:
            raise ConfigError("this configuration has no LVC")
        return self._access(self.lvc, self.lvc_mshr,
                            self.config.lvc_hit_latency, addr, is_store, now)

    def _access(self, cache: _RefCache, mshr: _RefMshrFile, hit_latency: int,
                addr: int, is_store: bool, now: int) -> AccessResult:
        line = cache.geom.line_of(addr)
        pending = mshr.lookup(line, now)
        if cache.access(addr, is_store):
            if pending is not None:
                return AccessResult(max(pending, now + hit_latency), False)
            return AccessResult(now + hit_latency, True)
        ready = self._miss(now + hit_latency, addr, is_store)
        if not mshr.allocate(line, ready, now):
            ready += 1
        return AccessResult(ready, False)

    def _miss(self, start: int, addr: int, is_store: bool) -> int:
        bus_at = max(start, self._bus_busy_until)
        self._bus_busy_until = bus_at + self.config.bus_occupancy
        self.counters.add("bus.transactions")
        if self.l2.access(addr, is_store):
            return bus_at + self.config.l2_latency
        return bus_at + self.config.l2_latency + self.config.mem_latency


class _RefUnitPool:
    """A pool of units with individual busy-until times (seed copy)."""

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


class _RefFuPool:
    """Seed-era functional-unit pool (enum-comparison dispatch)."""

    def __init__(self, ialu: int = 16, falu: int = 16,
                 imultdiv: int = 4, fmultdiv: int = 4):
        if min(ialu, falu, imultdiv, fmultdiv) <= 0:
            raise ConfigError("every functional-unit count must be positive")
        self.ialu = ialu
        self.falu = falu
        self._ialu_left = ialu
        self._falu_left = falu
        self._imult = _RefUnitPool(imultdiv)
        self._fmult = _RefUnitPool(fmultdiv)

    def new_cycle(self) -> None:
        self._ialu_left = self.ialu
        self._falu_left = self.falu

    def try_take(self, fu: int, now: int) -> bool:
        if fu == FuClass.IALU or fu == FuClass.LOAD or fu == FuClass.STORE \
                or fu == FuClass.BRANCH or fu == FuClass.SYSCALL \
                or fu == FuClass.NONE:
            if self._ialu_left > 0:
                self._ialu_left -= 1
                return True
            return False
        if fu == FuClass.FADD:
            if self._falu_left > 0:
                self._falu_left -= 1
                return True
            return False
        if fu == FuClass.FMUL:
            return self._fmult.try_take(now, now + 1)
        if fu == FuClass.IMULT:
            return self._imult.try_take(now, now + 1)
        if fu == FuClass.IDIV:
            return self._imult.try_take(now, now + LATENCY[FuClass.IDIV])
        if fu == FuClass.FDIV:
            return self._fmult.try_take(now, now + LATENCY[FuClass.FDIV])
        raise ConfigError(f"unknown functional-unit class {fu}")


class _RefMemQueue:
    """Seed-era memory queue: every query is a fresh O(queue) scan."""

    def __init__(self, size: int, name: str = "lsq"):
        if size <= 0:
            raise SimulationError("memory queue size must be positive")
        self.size = size
        self.name = name
        self.entries: List[MemQueueEntry] = []

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.size

    def append(self, entry: MemQueueEntry) -> None:
        if self.full:
            raise SimulationError(f"dispatch into a full {self.name}")
        self.entries.append(entry)

    def retire_committed(self) -> None:
        entries = self.entries
        drop = 0
        while drop < len(entries) and entries[drop].rob.state == COMMITTED:
            drop += 1
        if drop:
            del entries[:drop]

    def oldest_unknown_store_seq(self) -> int:
        for entry in self.entries:
            if entry.is_store and not entry.addr_known:
                return entry.rob.seq
        return INF_SEQ

    def oldest_unknown_nonsp_store_seq(self) -> int:
        for entry in self.entries:
            if entry.is_store and not entry.addr_known and not entry.sp_based:
                return entry.rob.seq
        return INF_SEQ

    def forward_source(self, load: MemQueueEntry) -> Optional[MemQueueEntry]:
        entries = self.entries
        idx = entries.index(load)
        for i in range(idx - 1, -1, -1):
            entry = entries[i]
            if entry.is_store and entry.word == load.word:
                return entry
        return None

    def fast_forward_source(
        self, load: MemQueueEntry
    ) -> Tuple[Optional[MemQueueEntry], bool]:
        if not load.sp_based or load.frame_key is None:
            return None, False
        entries = self.entries
        idx = entries.index(load)
        for i in range(idx - 1, -1, -1):
            entry = entries[i]
            if not entry.is_store:
                continue
            if entry.sp_based and entry.frame_key == load.frame_key:
                return entry, True
            if not entry.sp_based and not entry.addr_known:
                return None, False
            if not entry.sp_based and entry.addr_known \
                    and entry.word == load.word:
                return None, False
        return None, True

    def occupancy(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class ReferenceProcessor:
    """The seed cycle-stepped core, frozen for golden-equivalence checks.

    Construct a fresh instance per workload run, exactly like the live
    :class:`repro.core.processor.Processor` (whose API this mirrors).
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.counters = CounterSet()
        self.hierarchy = _RefMemoryHierarchy(config.mem, self.counters)
        self.rob = Rob(config.rob_size)
        self.lsq = _RefMemQueue(config.lsq_size, "lsq")
        self.lvaq = _RefMemQueue(config.lvaq_size, "lvaq")
        self.fus = _RefFuPool(config.ialu_units, config.falu_units,
                              config.imultdiv_units, config.fmultdiv_units)
        self.partitioner = StreamPartitioner(
            config.decoupled, config.decouple.predictor
        )
        self.now = 0
        self._events: Dict[int, List[RobEntry]] = {}
        self._issuable: List[RobEntry] = []
        self._producer: List[Optional[RobEntry]] = [None] * 64
        self._seq = 0
        self._committed = 0

    # ------------------------------------------------------------------ run

    def run(self, insts: Sequence[DynInst],
            workload_name: str = "<trace>") -> SimResult:
        total = len(insts)
        index = 0
        limit = total * 80 + 1000
        decoupled = self.config.decoupled
        while self._committed < total:
            self.now += 1
            if self.now > limit:
                raise SimulationError(
                    f"cycle limit exceeded ({limit}) at "
                    f"{self._committed}/{total} committed"
                )
            self.hierarchy.new_cycle()
            self.fus.new_cycle()
            self._commit()
            self._writeback()
            if decoupled:
                self._memory(self.lvaq, lvc_side=True)
            self._memory(self.lsq, lvc_side=False)
            self._issue()
            index = self._dispatch(insts, index, total)
        self.counters.set("cycles", self.now)
        self.counters.set("instructions", total)
        return SimResult(self.config.notation(), workload_name,
                         self.now, total, self.counters)

    # ----------------------------------------------------------------- commit

    def _commit(self) -> None:
        budget = self.config.issue_width
        now = self.now
        counters = self.counters
        hierarchy = self.hierarchy
        combining = self.config.decouple.combining
        combine_side: Optional[bool] = None
        combine_line = -1
        combine_left = 0
        retired_mem = False
        while budget > 0:
            entry = self.rob.head()
            if entry is None or entry.state != COMPLETED:
                break
            qe = entry.mem
            if qe is not None and qe.is_store:
                use_lvc = qe.use_lvc
                combined = (
                    combining > 1
                    and use_lvc
                    and combine_side == use_lvc
                    and combine_line == qe.line
                    and combine_left > 0
                )
                if combined:
                    combine_left -= 1
                    counters.add("lvaq.store_combined")
                else:
                    ports = (hierarchy.lvc_ports if use_lvc
                             else hierarchy.l1_ports)
                    if ports is None or not ports.try_take(
                            1, line=qe.line, is_store=True):
                        counters.add("stall.store_port")
                        break
                    combine_side = use_lvc
                    combine_line = qe.line
                    combine_left = combining - 1
                if use_lvc:
                    hierarchy.access_lvc(qe.word << 2, True, now)
                else:
                    hierarchy.access_l1(qe.word << 2, True, now)
                retired_mem = True
            elif qe is not None:
                retired_mem = True
            self.rob.pop_head()
            inst = entry.inst
            if inst.dst >= 0 and self._producer[inst.dst] is entry:
                self._producer[inst.dst] = None
            entry.consumers = []
            self._committed += 1
            budget -= 1
        if retired_mem:
            self.lsq.retire_committed()
            self.lvaq.retire_committed()

    # -------------------------------------------------------------- writeback

    def _writeback(self) -> None:
        completing = self._events.pop(self.now, None)
        if not completing:
            return
        now = self.now
        issuable = self._issuable
        for entry in completing:
            entry.state = COMPLETED
            entry.complete_time = now
            produced = entry.inst.dst
            for consumer in entry.consumers:
                consumer.pending -= 1
                qe = consumer.mem
                if (qe is not None and qe.is_store and not qe.addr_known
                        and consumer.inst.srcs
                        and consumer.inst.srcs[0] == produced):
                    qe.addr_known_time = now + 1
                    qe.word = consumer.inst.addr >> 2
                    qe.line = consumer.inst.addr >> 5
                if consumer.pending == 0 and consumer.state == DISPATCHED:
                    if consumer.earliest < now:
                        consumer.earliest = now
                    if not consumer.in_issuable:
                        consumer.in_issuable = True
                        issuable.append(consumer)
            entry.consumers = []

    def _schedule(self, entry: RobEntry, when: int) -> None:
        self._events.setdefault(when, []).append(entry)

    # ----------------------------------------------------------------- memory

    def _memory(self, queue: _RefMemQueue, lvc_side: bool) -> None:
        entries = queue.entries
        if not entries:
            return
        now = self.now
        counters = self.counters
        hierarchy = self.hierarchy
        ports = hierarchy.lvc_ports if lvc_side else hierarchy.l1_ports
        fast_fwd = (lvc_side and self.config.decouple.fast_forwarding)
        combining = (self.config.decouple.combining
                     if lvc_side else 1)
        unknown_seq = queue.oldest_unknown_store_seq()
        nonsp_unknown_seq = (queue.oldest_unknown_nonsp_store_seq()
                             if fast_fwd else unknown_seq)
        qname = queue.name
        ports_exhausted = ports is None or ports.available == 0

        i = 0
        n = len(entries)
        while i < n:
            qe = entries[i]
            i += 1
            if qe.serviced or qe.is_store:
                continue
            entry = qe.rob
            if entry.state == COMPLETED:
                continue

            blocking_seq = unknown_seq
            if fast_fwd and qe.sp_based:
                source, conclusive = queue.fast_forward_source(qe)
                if source is not None and entry.state == DISPATCHED:
                    src_rob = source.rob
                    if src_rob.pending == 0 and src_rob.earliest <= now:
                        if ports_exhausted or not ports.try_take(
                                1, line=qe.line, is_store=False):
                            counters.add(f"stall.{qname}_port")
                            ports_exhausted = True
                            continue
                        qe.serviced = True
                        entry.state = ISSUED
                        entry.issue_time = now
                        self._schedule(entry, now + 1)
                        counters.add("lvaq.fast_forwards")
                        continue
                    continue
                if conclusive:
                    blocking_seq = nonsp_unknown_seq

            if not qe.addr_known or qe.addr_known_time > now:
                continue
            if entry.seq > blocking_seq:
                continue
            if qe.penalty and now < qe.addr_known_time + qe.penalty:
                continue
            source = queue.forward_source(qe)
            if source is not None:
                if ports_exhausted or not ports.try_take(
                        1, line=qe.line, is_store=False):
                    counters.add(f"stall.{qname}_port")
                    ports_exhausted = True
                    continue
                qe.serviced = True
                self._schedule(entry, now + 1)
                counters.add(f"{qname}.forwards")
                continue
            if ports_exhausted or not ports.try_take(
                    1, line=qe.line, is_store=False):
                counters.add(f"stall.{qname}_port")
                ports_exhausted = True
                continue
            addr = qe.word << 2
            if lvc_side:
                result = hierarchy.access_lvc(addr, False, now)
            else:
                result = hierarchy.access_l1(addr, False, now)
            qe.serviced = True
            self._schedule(entry, result.ready)
            if combining > 1:
                j = i
                while j < n and j < i + combining - 1:
                    cand = entries[j]
                    j += 1
                    if (cand.is_store or cand.serviced
                            or not cand.addr_known
                            or cand.addr_known_time > now
                            or cand.line != qe.line
                            or cand.rob.seq > unknown_seq
                            or cand.penalty
                            or cand.rob.state == COMPLETED):
                        continue
                    if queue.forward_source(cand) is not None:
                        continue
                    cand.serviced = True
                    self._schedule(cand.rob, result.ready)
                    counters.add("lvaq.load_combined")

    # ------------------------------------------------------------------ issue

    def _issue(self) -> None:
        issuable = self._issuable
        if not issuable:
            return
        now = self.now
        budget = self.config.issue_width
        fus = self.fus
        keep: List[RobEntry] = []
        issuable.sort(key=lambda e: e.seq)
        for entry in issuable:
            if entry.state != DISPATCHED:
                entry.in_issuable = False
                continue
            if budget == 0 or entry.earliest > now:
                keep.append(entry)
                continue
            fu = entry.inst.fu
            if not fus.try_take(fu, now):
                keep.append(entry)
                self.counters.add("stall.fu")
                continue
            budget -= 1
            entry.state = ISSUED
            entry.issue_time = now
            entry.in_issuable = False
            qe = entry.mem
            if qe is not None:
                if not qe.addr_known:
                    qe.addr_known_time = now + 1
                    inst = entry.inst
                    qe.word = inst.addr >> 2
                    qe.line = inst.addr >> 5
                if qe.is_store:
                    self._schedule(entry, now + 1)
            else:
                self._schedule(entry, now + LATENCY[FuClass(entry.inst.fu)])
        self._issuable = keep

    # --------------------------------------------------------------- dispatch

    def _dispatch(self, insts: Sequence[DynInst], index: int,
                  total: int) -> int:
        rob = self.rob
        counters = self.counters
        now = self.now
        penalty = self.config.decouple.mispredict_penalty
        producer = self._producer
        issuable = self._issuable
        for _ in range(self.config.issue_width):
            if index >= total:
                break
            if rob.full:
                counters.add("stall.rob_full")
                break
            inst = insts[index]
            fu = inst.fu
            is_mem = fu == _LOAD or fu == _STORE
            to_lvaq = False
            mispredicted = False
            if is_mem:
                to_lvaq, mispredicted = self.partitioner.steer(inst)
                queue = self.lvaq if to_lvaq else self.lsq
                if queue.full:
                    counters.add(f"stall.{queue.name}_full")
                    break
            entry = RobEntry(self._seq, inst)
            self._seq += 1
            pending = 0
            for reg in inst.srcs:
                if reg <= 0:
                    continue
                prod = producer[reg]
                if prod is not None and prod.state != COMPLETED:
                    prod.consumers.append(entry)
                    pending += 1
            entry.pending = pending
            entry.earliest = now + 1
            dst = inst.dst
            if dst > 0:
                producer[dst] = entry
            rob.push(entry)
            if is_mem:
                frame_key = None
                if inst.sp_based:
                    frame_key = (inst.frame_id, inst.offset)
                qe = MemQueueEntry(
                    entry,
                    fu == _STORE,
                    now,
                    sp_based=inst.sp_based,
                    frame_key=frame_key,
                    use_lvc=to_lvaq,
                    penalty=penalty if mispredicted else 0,
                )
                entry.mem = qe
                queue.append(qe)
                if qe.is_store:
                    base_reg = inst.srcs[0] if inst.srcs else 0
                    prod = producer[base_reg] if base_reg > 0 else None
                    if prod is None or prod.state == COMPLETED:
                        qe.addr_known_time = now + 1
                        qe.word = inst.addr >> 2
                        qe.line = inst.addr >> 5
                side = "lvaq" if to_lvaq else "lsq"
                counters.add(f"{side}.stores" if qe.is_store
                             else f"{side}.loads")
                if mispredicted:
                    counters.add("classify.mispredictions")
            if pending == 0:
                entry.in_issuable = True
                issuable.append(entry)
            index += 1
        return index
