"""Tests for the reorder buffer."""

import pytest

from repro.errors import SimulationError
from repro.isa.opcodes import FuClass
from repro.pipeline.rob import COMMITTED, DISPATCHED, Rob, RobEntry
from repro.vm.trace import DynInst


def entry(seq):
    return RobEntry(seq, DynInst(int(FuClass.IALU), dst=8, srcs=(9,)))


def test_push_and_head():
    rob = Rob(4)
    assert rob.head() is None
    e = entry(0)
    rob.push(e)
    assert rob.head() is e
    assert len(rob.entries) == 1


def test_capacity_enforced():
    rob = Rob(2)
    rob.push(entry(0))
    rob.push(entry(1))
    assert rob.full
    with pytest.raises(SimulationError):
        rob.push(entry(2))


def test_commit_in_order():
    rob = Rob(4)
    entries = [entry(i) for i in range(3)]
    for e in entries:
        rob.push(e)
    popped = rob.pop_head()
    assert popped is entries[0]
    assert popped.state == COMMITTED
    assert rob.head() is entries[1]


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        Rob(2).pop_head()


def test_zero_size_rejected():
    with pytest.raises(SimulationError):
        Rob(0)


def test_entry_lifecycle_fields():
    e = entry(5)
    assert e.state == DISPATCHED
    assert e.pending == 0
    assert e.issue_time == e.complete_time == -1
    assert e.consumers == [] and e.mem is None


def test_occupancy():
    rob = Rob(8)
    for i in range(5):
        rob.push(entry(i))
    rob.pop_head()
    assert len(rob.entries) == 4
