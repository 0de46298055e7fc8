"""Sharded, content-addressed result store with integrity and GC.

The runtime's one result store: results of every registered job kind
live in one directory tree, fanned out by hash prefix, with a per-shard
index that makes the store administrable — ``repro-cc cache
stats|verify|gc`` all read it.

Layout (under ``--cache-dir``, ``$REPRO_CACHE_DIR``, or ``~/.cache/repro``)::

    <cache_dir>/
      v2/
        <code_salt>/              one tree per simulator code version
          <key[:2]>/              256-way shard fan-out
            index.json            shard index: key -> entry metadata
            <key>.pkl             pickled result payload

An index entry records the job ``kind`` (the registry validates the
payload type on the way back out), the payload ``size`` and ``sha256``
(integrity verification), the last-access time ``atime`` and cumulative
``hits`` (LRU-by-atime GC and stats).  Payload writes are atomic (temp
file + ``os.replace``); index writes are too, and the index is *soft*
metadata — a payload present on disk but missing from the index is
adopted on first touch, never lost, so a racing writer that loses an
index update costs bookkeeping precision, not results.

Hit-path economy: ``lookup``/``store`` buffer atime/hit movements in
memory and :meth:`flush` writes the dirty shards — the engine flushes
once per run, the service once per batch — so a thousand-hit sweep does
not rewrite index files a thousand times.

Every result lives under a code salt, so a directory left by an older
store format or an older simulator is simply never read; ``cache gc``
reclaims only the current salt's tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.registry import kind_for, registered_kinds
from repro.utils import write_atomic

_FORMAT = "v2"
INDEX_NAME = "index.json"
INDEX_VERSION = 1


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or the conventional per-user cache location."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class StoreProblem:
    """One defect ``verify`` found (reported, never raised)."""

    __slots__ = ("key", "shard", "issue")

    def __init__(self, key: str, shard: str, issue: str):
        self.key = key
        self.shard = shard
        self.issue = issue

    def __repr__(self) -> str:
        return f"StoreProblem({self.shard}/{self.key[:12]}: {self.issue})"


class ResultStore:
    """On-disk result store keyed by (code salt, job key), kind-checked."""

    def __init__(self, root: str, salt: str):
        self.root = root
        self.salt = salt
        self.dir = os.path.join(root, _FORMAT, salt)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # shard -> (index dict, dirty flag); indexes load lazily.
        self._indexes: Dict[str, Tuple[Dict[str, Any], bool]] = {}

    # -- paths and indexes ---------------------------------------------------

    def _shard(self, key: str) -> str:
        return key[:2]

    def _payload_path(self, key: str) -> str:
        return os.path.join(self.dir, self._shard(key), key + ".pkl")

    def _index_path(self, shard: str) -> str:
        return os.path.join(self.dir, shard, INDEX_NAME)

    def _load_index(self, shard: str) -> Dict[str, Any]:
        cached = self._indexes.get(shard)
        if cached is not None:
            return cached[0]
        index = self._read_index(shard)
        self._indexes[shard] = (index, False)
        return index

    def _read_index(self, shard: str) -> Dict[str, Any]:
        try:
            with open(self._index_path(shard), "r") as handle:
                payload = json.load(handle)
            entries = payload.get("entries", {})
            if isinstance(entries, dict):
                return entries
        except (OSError, ValueError):
            pass
        return {}

    def _mark_dirty(self, shard: str) -> None:
        index = self._load_index(shard)
        self._indexes[shard] = (index, True)

    def flush(self) -> None:
        """Write every dirty shard index (merging with on-disk state)."""
        for shard, (index, dirty) in list(self._indexes.items()):
            if not dirty:
                continue
            merged = self._read_index(shard)
            for key, entry in index.items():
                known = merged.get(key)
                if known is not None:
                    # Keep the larger hit count / newer atime: another
                    # process may have advanced them concurrently.
                    entry = dict(entry)
                    entry["hits"] = max(entry.get("hits", 0),
                                        known.get("hits", 0))
                    entry["atime"] = max(entry.get("atime", 0.0),
                                         known.get("atime", 0.0))
                merged[key] = entry
            # Entries we deleted locally stay deleted.
            for key in [k for k in merged
                        if k not in index
                        and not os.path.exists(self._payload_path(k))]:
                del merged[key]
            directory = os.path.join(self.dir, shard)
            os.makedirs(directory, exist_ok=True)
            write_atomic(
                self._index_path(shard),
                json.dumps({"version": INDEX_VERSION, "entries": merged},
                           sort_keys=True, indent=1).encode("utf-8"))
            self._indexes[shard] = (merged, False)

    # -- core API ------------------------------------------------------------

    def lookup(self, job) -> Optional[Any]:
        """The stored result for *job*, or None (corrupt entries = miss)."""
        kind = kind_for(job)
        key = job.key
        path = self._payload_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            result = pickle.loads(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated/corrupt (e.g. a killed writer pre-os.replace on a
            # filesystem without atomic rename): drop it and recompute.
            self._drop(key)
            self.misses += 1
            return None
        if not isinstance(result, kind.result_type):
            self.misses += 1
            return None
        self._touch(key, kind.name, data)
        self.hits += 1
        return result

    def store(self, job, result: Any) -> None:
        """Store *result* for *job* atomically and index it."""
        kind = kind_for(job)
        key = job.key
        path = self._payload_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = pickle.dumps(result, protocol=4)
        write_atomic(path, data)
        shard = self._shard(key)
        index = self._load_index(shard)
        index[key] = {
            "kind": kind.name,
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "atime": time.time(),
            "hits": index.get(key, {}).get("hits", 0),
            "meta": job.describe(),
        }
        self._mark_dirty(shard)
        self.writes += 1

    def _touch(self, key: str, kind_name: str, data: bytes) -> None:
        shard = self._shard(key)
        index = self._load_index(shard)
        entry = index.get(key)
        if entry is None:
            # Payload present but unindexed (lost index race, manual
            # copy): adopt it into the index.
            entry = {"kind": kind_name, "size": len(data),
                     "sha256": hashlib.sha256(data).hexdigest(), "hits": 0}
            index[key] = entry
        entry["hits"] = entry.get("hits", 0) + 1
        entry["atime"] = time.time()
        self._mark_dirty(shard)

    def _drop(self, key: str) -> None:
        try:
            os.remove(self._payload_path(key))
        except OSError:
            pass
        shard = self._shard(key)
        index = self._load_index(shard)
        if index.pop(key, None) is not None:
            self._mark_dirty(shard)

    # -- administration (repro-cc cache) -------------------------------------

    def shards(self) -> List[str]:
        """Every shard directory name present on disk, sorted."""
        try:
            return sorted(
                name for name in os.listdir(self.dir)
                if len(name) == 2
                and os.path.isdir(os.path.join(self.dir, name)))
        except OSError:
            return []

    def _iter_entries(self) -> Iterable[Tuple[str, str, Dict[str, Any]]]:
        """(shard, key, index entry) for every payload on disk.

        Unindexed payloads are surfaced with a synthesized entry so no
        administrative pass can miss data.
        """
        for shard in self.shards():
            index = self._load_index(shard)
            directory = os.path.join(self.dir, shard)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".pkl"):
                    continue
                key = name[: -len(".pkl")]
                entry = index.get(key)
                if entry is None:
                    path = os.path.join(directory, name)
                    try:
                        stat = os.stat(path)
                    except OSError:
                        continue
                    entry = {"kind": None, "size": stat.st_size,
                             "sha256": None, "atime": stat.st_mtime,
                             "hits": 0, "unindexed": True}
                yield shard, key, entry

    def disk_stats(self) -> Dict[str, Any]:
        """Shard-by-shard sizes, entry counts, and cumulative hit counts."""
        self.flush()
        shards: Dict[str, Dict[str, Any]] = {}
        kinds: Dict[str, int] = {}
        total_bytes = 0
        total_entries = 0
        total_hits = 0
        for shard, _key, entry in self._iter_entries():
            agg = shards.setdefault(
                shard, {"entries": 0, "bytes": 0, "hits": 0})
            agg["entries"] += 1
            agg["bytes"] += entry.get("size", 0)
            agg["hits"] += entry.get("hits", 0)
            kind = entry.get("kind") or "?"
            kinds[kind] = kinds.get(kind, 0) + 1
            total_bytes += entry.get("size", 0)
            total_entries += 1
            total_hits += entry.get("hits", 0)
        return {
            "dir": self.dir,
            "salt": self.salt,
            "entries": total_entries,
            "bytes": total_bytes,
            "hits": total_hits,
            "kinds": kinds,
            "shards": shards,
        }

    def verify(self) -> List[StoreProblem]:
        """Integrity pass: every payload unpickles, hashes, and types.

        Corrupt entries are *reported*, never raised — the caller (the
        ``repro-cc cache verify`` verb) decides what to do.
        """
        problems: List[StoreProblem] = []
        kinds = registered_kinds()
        for shard, key, entry in self._iter_entries():
            path = self._payload_path(key)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                problems.append(StoreProblem(key, shard,
                                             f"unreadable: {exc}"))
                continue
            want = entry.get("sha256")
            if want is not None:
                got = hashlib.sha256(data).hexdigest()
                if got != want:
                    problems.append(StoreProblem(
                        key, shard,
                        f"payload hash mismatch (index {want[:12]}, "
                        f"disk {got[:12]})"))
                    continue
            try:
                result = pickle.loads(data)
            except Exception as exc:  # noqa: BLE001 - reported
                problems.append(StoreProblem(
                    key, shard, f"does not unpickle: "
                                f"{type(exc).__name__}: {exc}"))
                continue
            kind_name = entry.get("kind")
            if kind_name is not None:
                kind = kinds.get(kind_name)
                if kind is None:
                    problems.append(StoreProblem(
                        key, shard, f"unknown kind {kind_name!r}"))
                elif not isinstance(result, kind.result_type):
                    problems.append(StoreProblem(
                        key, shard,
                        f"payload is {type(result).__name__}, kind "
                        f"{kind_name!r} expects "
                        f"{kind.result_type.__name__}"))
        return problems

    def gc(self, budget_bytes: int,
           dry_run: bool = False) -> Dict[str, Any]:
        """Evict least-recently-used entries until under *budget_bytes*.

        Returns a report; with ``dry_run`` nothing is deleted and the
        report describes what *would* go.
        """
        if budget_bytes < 0:
            raise ValueError("GC budget must be >= 0 bytes")
        self.flush()
        entries = sorted(
            self._iter_entries(),
            key=lambda item: (item[2].get("atime", 0.0), item[1]))
        total = sum(entry.get("size", 0) for _s, _k, entry in entries)
        evicted: List[Dict[str, Any]] = []
        freed = 0
        remaining = total
        for shard, key, entry in entries:
            if remaining <= budget_bytes:
                break
            size = entry.get("size", 0)
            evicted.append({"key": key, "shard": shard, "size": size,
                            "kind": entry.get("kind"),
                            "atime": entry.get("atime", 0.0)})
            freed += size
            remaining -= size
            if not dry_run:
                self._drop(key)
        if not dry_run:
            self.flush()
        return {
            "budget_bytes": budget_bytes,
            "bytes_before": total,
            "bytes_after": remaining,
            "freed_bytes": freed,
            "evicted": evicted,
            "kept": len(entries) - len(evicted),
            "dry_run": dry_run,
        }

    # -- session counters ----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over lookups this session (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Session counters for the run manifest."""
        return {
            "dir": self.dir,
            "salt": self.salt,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (f"ResultStore({self.dir!r}, hits={self.hits}, "
                f"misses={self.misses})")


def runtime_store(cache_dir: Optional[str] = None,
                  salt: Optional[str] = None) -> Optional[ResultStore]:
    """The standard-location result store, or None when caching is off.

    The one store policy every runtime entry point shares: an explicit
    directory wins, then ``$REPRO_CACHE_DIR``, else no store.
    """
    from repro.runtime.signature import code_salt

    root = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        return None
    return ResultStore(root, salt if salt else code_salt())
