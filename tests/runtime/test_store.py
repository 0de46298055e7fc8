"""The sharded result store: round-trips, salts, integrity, GC."""

from __future__ import annotations

import hashlib
import json
import os
import pickle

import pytest

from repro.runtime.registry import JobKind, register_kind
from repro.runtime.store import (ResultStore, StoreProblem, default_cache_dir,
                                 runtime_store)


class BlobResult:
    """Trivial result type for store tests (fast, no simulator)."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, BlobResult) and other.value == self.value


class BlobJob:
    """Trivial job spec: content-addressed by name."""

    kind = "blob-test"

    def __init__(self, name, payload=None):
        self.name = name
        self.payload = payload if payload is not None else name
        self.workload = name
        self.scale = 1.0
        self.seed = 1

    @property
    def key(self):
        return hashlib.sha256(self.name.encode("utf-8")).hexdigest()

    def describe(self):
        return {"name": self.name}

    def label(self):
        return self.name


def execute_blob(job):
    return BlobResult(job.payload)


register_kind(JobKind("blob-test", BlobJob, BlobResult, execute_blob))


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path), salt="t")


def test_round_trip_and_counters(store):
    job = BlobJob("alpha", payload=[1, 2, 3])
    assert store.lookup(job) is None
    store.store(job, BlobResult([1, 2, 3]))
    found = store.lookup(job)
    assert found == BlobResult([1, 2, 3])
    assert store.writes == 1 and store.hits == 1 and store.misses == 1
    assert 0.0 < store.hit_rate < 1.0
    stats = store.stats()
    assert stats["salt"] == "t"


def test_flush_writes_shard_index(store):
    job = BlobJob("beta")
    store.store(job, BlobResult("beta"))
    store.lookup(job)
    store.flush()
    shard = job.key[:2]
    index_path = os.path.join(store.dir, shard, "index.json")
    with open(index_path) as handle:
        body = json.load(handle)
    entry = body["entries"][job.key]
    assert entry["kind"] == "blob-test"
    assert entry["hits"] == 1
    assert entry["size"] > 0
    assert len(entry["sha256"]) == 64
    assert entry["meta"] == {"name": "beta"}


def test_payload_lives_in_hash_prefixed_shard(store):
    job = BlobJob("gamma")
    store.store(job, BlobResult("gamma"))
    expected = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    assert os.path.exists(expected)


def test_corrupt_payload_is_a_miss_and_gets_dropped(store):
    job = BlobJob("delta")
    store.store(job, BlobResult("delta"))
    path = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert store.lookup(job) is None
    assert not os.path.exists(path)
    # The next run recomputes and re-stores cleanly.
    store.store(job, BlobResult("delta"))
    assert store.lookup(job) == BlobResult("delta")


def test_wrong_result_type_is_a_miss(store):
    job = BlobJob("epsilon")
    path = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump({"not": "a BlobResult"}, handle)
    assert store.lookup(job) is None
    assert store.misses == 1


def test_code_salt_invalidates(tmp_path):
    """A new code version must never serve results from an old one."""
    old = ResultStore(str(tmp_path), salt="a")
    job = BlobJob("zeta")
    old.store(job, BlobResult("zeta"))
    old.flush()
    assert ResultStore(str(tmp_path), salt="b").lookup(job) is None
    # ... while the old version's entries stay untouched.
    assert ResultStore(str(tmp_path), salt="a").lookup(job) == \
        BlobResult("zeta")


def test_default_cache_dir_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
    assert default_cache_dir() == os.path.join("/tmp/xdg", "repro")


def test_unindexed_payload_adopted_on_touch(store):
    job = BlobJob("eta")
    path = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(BlobResult("eta"), handle)
    assert store.lookup(job) == BlobResult("eta")
    store.flush()
    with open(os.path.join(store.dir, job.key[:2], "index.json")) as handle:
        entries = json.load(handle)["entries"]
    assert entries[job.key]["kind"] == "blob-test"
    assert entries[job.key]["hits"] == 1


def test_verify_clean_store_reports_nothing(store):
    for name in ("a1", "a2", "a3"):
        store.store(BlobJob(name), BlobResult(name))
    assert store.verify() == []


def test_verify_reports_corruption_without_raising(store):
    good = BlobJob("good")
    bad = BlobJob("bad")
    store.store(good, BlobResult("good"))
    store.store(bad, BlobResult("bad"))
    store.flush()
    path = os.path.join(store.dir, bad.key[:2], bad.key + ".pkl")
    with open(path, "ab") as handle:
        handle.write(b"tamper")  # hash mismatch, still unpickles

    problems = store.verify()
    assert len(problems) == 1
    assert isinstance(problems[0], StoreProblem)
    assert problems[0].key == bad.key
    assert "hash mismatch" in problems[0].issue


def test_gc_evicts_lru_until_under_budget(store):
    jobs = [BlobJob(f"gc-{i}", payload="x" * 100) for i in range(4)]
    for job in jobs:
        store.store(job, BlobResult(job.payload))
    store.flush()
    # Pin distinct access times so LRU order is deterministic: gc-0 is
    # coldest, gc-3 hottest.
    for rank, job in enumerate(jobs):
        shard = job.key[:2]
        index = store._load_index(shard)
        index[job.key]["atime"] = 1000.0 + rank
        store._mark_dirty(shard)
    store.flush()

    before = store.disk_stats()
    per_entry = before["bytes"] // 4
    budget = per_entry * 2  # room for two entries

    dry = store.gc(budget, dry_run=True)
    assert dry["dry_run"] is True
    assert [e["key"] for e in dry["evicted"]] == [jobs[0].key, jobs[1].key]
    # Dry run deletes nothing.
    assert all(store.lookup(job) is not None for job in jobs)

    report = store.gc(budget)
    assert report["dry_run"] is False
    assert [e["key"] for e in report["evicted"]] == [jobs[0].key,
                                                     jobs[1].key]
    assert report["bytes_after"] <= budget
    assert report["freed_bytes"] == report["bytes_before"] - report["bytes_after"]
    assert store.lookup(jobs[0]) is None
    assert store.lookup(jobs[1]) is None
    assert store.lookup(jobs[2]) is not None
    assert store.lookup(jobs[3]) is not None
    assert store.gc(budget, dry_run=True)["evicted"] == []


def test_gc_rejects_negative_budget(store):
    with pytest.raises(ValueError):
        store.gc(-1)


def test_disk_stats_aggregates_kinds_and_shards(store):
    for name in ("s1", "s2"):
        store.store(BlobJob(name), BlobResult(name))
    stats = store.disk_stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert stats["kinds"] == {"blob-test": 2}
    assert sum(s["entries"] for s in stats["shards"].values()) == 2


def test_runtime_store_respects_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert runtime_store() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = runtime_store(salt="t")
    assert store is not None
    assert store.root == str(tmp_path)
    explicit = runtime_store(str(tmp_path / "other"), salt="t")
    assert explicit.root == str(tmp_path / "other")
