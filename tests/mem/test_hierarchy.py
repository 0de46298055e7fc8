"""Tests for the full memory hierarchy."""

import pytest

from repro.errors import ConfigError
from repro.mem.hierarchy import MemSystemConfig, MemoryHierarchy


def make(l1_ports=2, lvc_ports=2, **kwargs):
    return MemoryHierarchy(MemSystemConfig(l1_ports=l1_ports,
                                           lvc_ports=lvc_ports, **kwargs))


def test_notation():
    assert MemSystemConfig(l1_ports=3, lvc_ports=2).notation() == "(3+2)"
    assert MemSystemConfig(l1_ports=4, lvc_ports=0).notation() == "(4+0)"


def test_l1_must_have_a_port():
    with pytest.raises(ConfigError):
        MemSystemConfig(l1_ports=0)


def test_no_lvc_when_zero_ports():
    hierarchy = make(lvc_ports=0)
    assert hierarchy.lvc is None
    with pytest.raises(ConfigError):
        hierarchy.ready_lvc(0x100, False, 0)


def test_l1_hit_latency():
    hierarchy = make()
    hierarchy.ready_l1(0x100, False, now=0)       # cold miss, fills line
    ready = hierarchy.ready_l1(0x100, False, now=100)
    assert hierarchy.last_hit
    assert ready == 100 + 2  # paper: 2-cycle L1 hit


def test_lvc_hit_latency_one_cycle():
    hierarchy = make()
    hierarchy.ready_lvc(0x7FFF0000, True, now=0)
    ready = hierarchy.ready_lvc(0x7FFF0000, False, now=100)
    assert hierarchy.last_hit
    assert ready == 101  # paper: 1-cycle LVC hit


def test_l1_miss_goes_through_l2():
    hierarchy = make()
    ready = hierarchy.ready_l1(0x100, False, now=0)
    assert not hierarchy.last_hit
    # miss path: 2 (L1 lookup) + 12 (L2) + 50 (memory, L2 cold too)
    assert ready == 2 + 12 + 50


def test_l2_hit_after_warmup():
    hierarchy = make()
    hierarchy.ready_l1(0x100, False, now=0)  # fills L2 and L1
    hierarchy.l1.invalidate(0x100)
    ready = hierarchy.ready_l1(0x100, False, now=100)
    assert not hierarchy.last_hit
    assert ready == 100 + 2 + 12  # L2 hit this time


def test_mshr_merges_secondary_miss():
    hierarchy = make()
    first = hierarchy.ready_l1(0x100, False, now=0)
    second = hierarchy.ready_l1(0x104, False, now=1)  # same line, in flight
    assert not hierarchy.last_hit
    assert second == max(first, 1 + 2)
    assert hierarchy.l1_mshr.merged == 1
    # only one bus transaction
    assert hierarchy.counters.get("bus.transactions") == 1


def test_bus_serialises_misses():
    hierarchy = make(bus_occupancy=4)
    a = hierarchy.ready_l1(0x1000, False, now=0)
    b = hierarchy.ready_l1(0x2000, False, now=0)
    assert b > a  # second miss queued behind the first


def test_l2_traffic_counted():
    hierarchy = make()
    hierarchy.ready_l1(0x1000, False, now=0)
    hierarchy.ready_l1(0x2000, False, now=10)
    hierarchy.ready_l1(0x1000, False, now=100)  # hit, no traffic
    assert hierarchy.counters.get("bus.transactions") == 2


def test_ports_refill_each_cycle():
    hierarchy = make(l1_ports=1)
    assert hierarchy.l1_ports.try_take()
    assert not hierarchy.l1_ports.try_take()
    hierarchy.l1_ports.new_cycle()
    assert hierarchy.l1_ports.try_take()


def test_lvc_and_l1_are_independent_tag_stores():
    hierarchy = make()
    hierarchy.ready_lvc(0x7FFF0000, True, now=0)
    hierarchy.ready_lvc(0x7FFF0000, False, now=100)
    assert hierarchy.last_hit  # the LVC holds the line ...
    hierarchy.ready_l1(0x7FFF0000, False, now=100)
    assert not hierarchy.last_hit  # ... the L1 does not


def test_stores_mark_lines_dirty_for_writeback():
    hierarchy = make(l1_size=64, l1_assoc=1, lvc_ports=0)  # 2-line L1
    stride = 2 * 32
    hierarchy.ready_l1(0, True, now=0)
    hierarchy.ready_l1(stride, False, now=10)  # evicts dirty line
    assert hierarchy.counters.get("l1.writebacks") == 1


def test_mshr_full_adds_delay():
    hierarchy = make(mshr_entries=1)
    first = hierarchy.ready_l1(0x1000, False, now=0)
    second = hierarchy.ready_l1(0x2000, False, now=0)
    # second miss could not allocate an MSHR: penalised
    assert second > first
