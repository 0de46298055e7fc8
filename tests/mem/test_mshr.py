"""Tests for the MSHR file."""

import pytest

from repro.errors import ConfigError
from repro.mem import MshrFile


def test_allocate_and_lookup():
    mshr = MshrFile(4)
    assert mshr.lookup(10, now=0) is None
    assert mshr.allocate(10, ready=20, now=0)
    assert mshr.lookup(10, now=5) == 20
    assert mshr.merged == 1


def test_entries_expire():
    mshr = MshrFile(4)
    mshr.allocate(10, ready=20, now=0)
    assert mshr.lookup(10, now=20) is None
    assert mshr.merged == 0


def test_capacity_limit():
    mshr = MshrFile(2)
    assert mshr.allocate(1, ready=100, now=0)
    assert mshr.allocate(2, ready=100, now=0)
    assert not mshr.allocate(3, ready=100, now=0)
    assert mshr.full_events == 1


def test_expiry_frees_capacity():
    mshr = MshrFile(1)
    mshr.allocate(1, ready=10, now=0)
    assert mshr.allocate(2, ready=30, now=10)


def test_zero_entries_rejected():
    with pytest.raises(ConfigError):
        MshrFile(0)


def test_occupancy_counts_live_entries():
    mshr = MshrFile(2)
    mshr.allocate(1, ready=10, now=0)
    mshr.allocate(2, ready=20, now=0)
    # At cycle 15 only line 2 is live: one entry is free, then none.
    assert mshr.allocate(3, ready=30, now=15)
    assert not mshr.allocate(4, ready=30, now=15)
    assert mshr.full_events == 1
