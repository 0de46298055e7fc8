"""Trace capture: run the functional frontend once, serialize forever.

A :class:`TraceJob` names everything that determines a committed dynamic
stream — the workload (or inline source), its scale/seed, and the
compile-relevant options — exactly the frontend half of a
:class:`repro.runtime.job.SimJob` (the machine configuration is absent:
the committed stream does not depend on it).  Captured traces live
under the result store's root, content-addressed like results::

    <cache_dir>/v1/<capture_salt>/<key[:2]>/<key>.trace   (+ .json meta)

under their **own code-salt entry**: :func:`capture_salt` hashes only
the sources that can change a committed stream (lang/vm/isa/asm/
workloads — see ``TRACE_SALT_SOURCES``) plus the trace-format version,
so editing the timing kernel keeps captured traces valid while editing
the compiler or VM — or bumping the format — invalidates them all.

Next to each ``.trace`` the store keeps a derived ``.pdt`` sidecar
(:mod:`repro.trace.predecode`): the trace's stream sections, which the
replay path loads instead of re-reading the whole trace.  Sidecars
are content-addressed to the trace's payload hash and re-derived on
demand, so they are pure cache — deleting one costs a rebuild, never
correctness.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.errors import TraceError
from repro.runtime.registry import JobKind, register_kind
from repro.runtime.signature import (
    TRACE_SALT_SOURCES,
    canonical_json,
    digest,
    source_salt,
)
from repro.runtime.store import default_cache_dir
from repro.trace.format import TRACE_FORMAT_VERSION, write_trace
from repro.utils import write_atomic
from repro.vm.trace import Trace

_CAPTURE_SALT: Dict[str, str] = {}


def capture_salt() -> str:
    """The code-salt entry captured traces are stored under.

    ``trace<version>-<hash>``: the format version is spelled out in the
    directory name (debuggability), and the hash covers the frontend
    sources.  ``REPRO_CACHE_SALT`` composes rather than replaces — the
    override still gets a distinct trace entry, so pinned-salt test
    caches can never confuse a pickled SimResult with a trace file.
    """
    override = os.environ.get("REPRO_CACHE_SALT")
    if override:
        return f"trace{TRACE_FORMAT_VERSION}-{override}"
    cached = _CAPTURE_SALT.get("salt")
    if cached is None:
        cached = (f"trace{TRACE_FORMAT_VERSION}-"
                  f"{source_salt(TRACE_SALT_SOURCES)}")
        _CAPTURE_SALT["salt"] = cached
    return cached


class TraceJob:
    """Spec of one capture: the frontend half of a ``SimJob``.

    Field-compatible with the attributes
    :func:`repro.runtime.worker.trace_for_job` reads, so the same worker
    code builds traces for capture and for execution-driven simulation.
    """

    __slots__ = ("workload", "scale", "seed", "source_text", "optimize",
                 "opt_level", "max_instructions", "_key")

    kind = "trace"

    def __init__(
        self,
        workload: str,
        scale: float = 1.0,
        seed: int = 1,
        source_text: Optional[str] = None,
        optimize: bool = True,
        opt_level: Optional[int] = None,
        max_instructions: Optional[int] = None,
    ):
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.source_text = source_text
        self.optimize = optimize
        self.opt_level = opt_level
        self.max_instructions = max_instructions
        self._key: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        """Everything that can affect the captured stream (JSON-able)."""
        body: Dict[str, Any] = {
            "kind": "trace-capture",
            "format_version": TRACE_FORMAT_VERSION,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.source_text is not None:
            body["source"] = {
                "sha256": digest(self.source_text),
                "optimize": self.optimize,
                "opt_level": self.opt_level,
                "max_instructions": self.max_instructions,
            }
        return body

    @property
    def key(self) -> str:
        """Content-addressed identity of the capture."""
        if self._key is None:
            self._key = digest(canonical_json(self.describe()))
        return self._key

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"capture {self.workload}"

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_key"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._key = None

    def __repr__(self) -> str:
        return (f"TraceJob({self.workload!r}, scale={self.scale}, "
                f"seed={self.seed})")


class TraceStore:
    """Content-addressed trace files under the result-store root.

    Traces keep their own ``v1/<salt>/<key[:2]>`` fan-out next to the
    result store's ``v2`` tree and are written atomically, but stored in
    the raw trace format (``.trace``) instead of pickles — traces are
    their own serialization, checksummed and versioned by
    :mod:`repro.trace.format`.
    """

    SUFFIX = ".trace"
    PREDECODE_SUFFIX = ".pdt"

    def __init__(self, root: Optional[str] = None,
                 salt: Optional[str] = None):
        self.root = root if root else default_cache_dir()
        self.salt = salt if salt else capture_salt()
        self.dir = os.path.join(self.root, "v1", self.salt)

    def path(self, key: str) -> str:
        """Where the trace for *key* lives (whether or not it exists)."""
        return os.path.join(self.dir, key[:2], key + self.SUFFIX)

    def predecoded_path(self, key: str) -> str:
        """Where the pre-decoded sidecar for *key* lives."""
        return os.path.join(self.dir, key[:2],
                            key + self.PREDECODE_SUFFIX)

    def lookup(self, key: str) -> Optional[str]:
        """The stored trace path for *key*, or None."""
        path = self.path(key)
        return path if os.path.exists(path) else None

    def put(self, key: str, trace: Trace,
            meta: Optional[Dict[str, Any]] = None) -> str:
        """Serialize *trace* under *key*; returns the stored path."""
        path = self.path(key)
        write_trace(trace, path, meta=meta)
        if meta is not None:
            write_atomic(
                os.path.join(os.path.dirname(path), key + ".json"),
                (canonical_json(meta) + "\n").encode("utf-8"))
        return path

    def ensure_predecoded(self, key: str) -> Optional[str]:
        """Derive (or find) the sidecar for *key*'s stored trace.

        Returns the sidecar path, or None when no trace is stored.  An
        existing sidecar is trusted only if its ``source_sha256``
        matches the stored trace's payload hash — a re-captured trace
        invalidates its stale sidecar automatically.
        """
        from repro.trace import predecode as _pd
        from repro.trace.format import read_header

        trace_path = self.lookup(key)
        if trace_path is None:
            return None
        source_sha = read_header(trace_path).get("payload_sha256")
        sidecar = self.predecoded_path(key)
        try:
            if read_header(sidecar, _pd.SIDECAR).get(
                    "source_sha256") == source_sha:
                return sidecar
        except TraceError:
            pass  # absent, stale, or corrupt — rewrite below
        with open(trace_path, "rb") as handle:
            data = handle.read()
        _pd.write_predecoded(
            _pd.predecode_trace(data, origin=trace_path), sidecar)
        return sidecar

    def __repr__(self) -> str:
        return f"TraceStore({self.dir!r})"


def build_capture(job: TraceJob) -> Trace:
    """Run the functional frontend for *job* and return the fresh trace.

    Named workloads go through the builder **uncached** — capture is the
    one consumer that must pay the honest build cost (the benchmark
    compares it against replay), and in-process memo hits would let a
    mutated cached trace leak into a file.
    """
    if job.source_text is not None:
        from repro.runtime.worker import _trace_from_source

        trace = _trace_from_source(job)
        trace.name = job.workload
        return trace
    from repro.workloads.builder import build_trace_uncached
    from repro.workloads.spec import get_spec

    if job.workload.startswith("mini."):
        return build_trace_uncached(job.workload, seed=job.seed)
    length = max(10_000, int(get_spec(job.workload).default_length
                             * job.scale))
    return build_trace_uncached(job.workload, length=length, seed=job.seed)


def capture_trace(job: TraceJob, cache_dir: Optional[str] = None,
                  force: bool = False) -> Tuple[str, bool]:
    """Capture (or find) the trace for *job*; returns ``(path, cached)``.

    ``cached`` is True when the store already held the capture and the
    functional frontend did not run.
    """
    store = TraceStore(cache_dir)
    if not force:
        existing = store.lookup(job.key)
        if existing is not None:
            store.ensure_predecoded(job.key)
            return existing, True
    trace = build_capture(job)
    if not len(trace):
        raise TraceError(f"capture of {job.workload!r} produced an "
                         f"empty trace")
    path = store.put(job.key, trace, meta=job.describe())
    store.ensure_predecoded(job.key)
    return path, False


class CaptureResult:
    """What one executed capture job reports (the trace stays on disk)."""

    __slots__ = ("path", "cached")

    def __init__(self, path: str, cached: bool):
        self.path = path
        self.cached = cached

    def __repr__(self) -> str:
        return f"CaptureResult({self.path!r}, cached={self.cached})"


def execute_trace_job(job: TraceJob) -> CaptureResult:
    """The ``trace`` kind's executor (top-level; pool-picklable).

    Captures into the standard :class:`TraceStore` location; the result
    is a small pointer record — the trace itself is owned by the trace
    store, which is why this kind opts out of the result store
    (``cacheable=False``): double-pickling a multi-megabyte trace next
    to its canonical ``.trace`` file would only waste disk.
    """
    path, cached = capture_trace(job)
    return CaptureResult(path, cached)


def trace_job_from_payload(payload: Dict[str, Any]) -> TraceJob:
    """The ``trace`` kind's submission decoder."""
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise TraceError("trace job payload needs a 'workload' name")
    return TraceJob(
        workload,
        scale=float(payload.get("scale", 1.0)),
        seed=int(payload.get("seed", 1)),
        source_text=payload.get("source_text"),
        optimize=bool(payload.get("optimize", True)),
        opt_level=payload.get("opt_level"),
        max_instructions=payload.get("max_instructions"),
    )


def encode_capture_result(result: CaptureResult) -> Dict[str, Any]:
    """The ``trace`` kind's JSON rendering."""
    return {"path": result.path, "cached": result.cached}


register_kind(JobKind(
    "trace", TraceJob, CaptureResult, execute_trace_job,
    decode_spec=trace_job_from_payload,
    encode_result=encode_capture_result,
    cacheable=False,
))
