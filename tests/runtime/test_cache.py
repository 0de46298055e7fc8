"""The result store as the simulator's result cache: ``sim`` jobs and
``SimResult`` payloads round-trip, and bad entries read as misses."""

from __future__ import annotations

import json
import os
import pickle

import pytest

import repro.runtime.worker  # noqa: F401  (registers the "sim" kind)
from repro.core.metrics import SimResult
from repro.experiments.common import nm_config
from repro.runtime.job import SimJob
from repro.runtime.store import ResultStore
from repro.stats.counters import CounterSet

JOB = SimJob("130.li", nm_config(2, 0))


def _result(cycles: int = 100) -> SimResult:
    counters = CounterSet()
    counters.add("l1.accesses", 10)
    counters.add("l1.misses", 2)
    return SimResult("(2+0)", "130.li", cycles, 250, counters)


def _payload_path(cache: ResultStore) -> str:
    return os.path.join(cache.dir, JOB.key[:2], JOB.key + ".pkl")


@pytest.fixture
def cache(tmp_path):
    return ResultStore(str(tmp_path), salt="s1")


def test_roundtrip(cache):
    assert cache.lookup(JOB) is None
    cache.store(JOB, _result())
    loaded = cache.lookup(JOB)
    assert loaded is not None
    assert loaded.cycles == 100
    assert loaded.counters.get("l1.misses") == 2
    assert cache.hits == 1 and cache.misses == 1 and cache.writes == 1
    assert 0 < cache.hit_rate < 1


def test_meta_sidecar_written(cache):
    """The job description travels with the entry, in the shard index."""
    cache.store(JOB, _result())
    cache.flush()
    with open(os.path.join(cache.dir, JOB.key[:2], "index.json")) as handle:
        entry = json.load(handle)["entries"][JOB.key]
    assert entry["kind"] == "sim"
    assert entry["meta"] == JOB.describe()
    assert entry["meta"]["workload"] == "130.li"


def test_corrupt_entry_is_a_miss_and_removed(cache):
    cache.store(JOB, _result())
    path = _payload_path(cache)
    with open(path, "wb") as handle:
        handle.write(b"\x80\x04 truncated garbage")
    assert cache.lookup(JOB) is None
    assert not os.path.exists(path)
    # And a recompute repopulates it.
    cache.store(JOB, _result(cycles=77))
    assert cache.lookup(JOB).cycles == 77


def test_non_result_payload_is_a_miss(cache):
    path = _payload_path(cache)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump({"not": "a result"}, handle)
    assert cache.lookup(JOB) is None


def test_stats_payload(cache):
    cache.store(JOB, _result())
    cache.lookup(JOB)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["writes"] == 1
    assert stats["salt"] == "s1"
