"""Tests for SimResult metrics."""

import pytest

from repro.core.metrics import SimResult
from repro.stats.counters import CounterSet


def make_result(cycles=100, instructions=400, **counts):
    counters = CounterSet()
    for name, value in counts.items():
        counters.set(name.replace("__", "."), value)
    return SimResult("(2+2)", "w", cycles, instructions, counters)


def test_ipc():
    assert make_result().ipc == 4.0


def test_zero_cycles_ipc():
    assert make_result(cycles=0).ipc == 0.0


def test_miss_rates():
    result = make_result(l1__misses=10, l1__accesses=100,
                         lvc__misses=1, lvc__accesses=50)
    assert result.l1_miss_rate == pytest.approx(0.1)
    assert result.lvc_miss_rate == pytest.approx(0.02)


def test_miss_rate_without_accesses():
    assert make_result().lvc_miss_rate == 0.0


def test_forward_rate():
    result = make_result(lvaq__loads=100, lvaq__forwards=30,
                         lvaq__fast_forwards=20)
    assert result.lvaq_forward_rate == pytest.approx(0.5)


def test_l2_traffic():
    assert make_result(bus__transactions=7).l2_traffic == 7


def test_summary_keys():
    summary = make_result().summary()
    for key in ("config", "workload", "cycles", "ipc", "l1_miss_rate"):
        assert key in summary
