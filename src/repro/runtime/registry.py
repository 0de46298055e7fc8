"""The job-kind registry: one protocol for every unit of schedulable work.

Before this module existed, each job family grew its own plumbing — the
engine took an explicit ``execute`` callable, the cache a ``result_type``
class, the service layer would have needed a dispatch table of its own.
A :class:`JobKind` bundles everything the runtime needs to know about a
family of jobs in one registration:

* ``spec_type``   — the job-spec class (``SimJob``, ``MixJob``, ...);
* ``result_type`` — what an execution produces (integrity gate for the
  result store: a deserialized payload of any other type is a miss);
* ``execute``     — a **top-level, picklable** function mapping a spec to
  a result, so process-pool workers can run any kind;
* ``decode_spec`` — optional JSON-payload -> spec constructor (the job
  service's submission path; kinds without one are not submittable
  over the wire);
* ``encode_result`` — optional result -> JSON-able dict (the service's
  ``/result`` endpoint);
* ``cacheable``   — whether the engine should route results through the
  result store (trace captures own their store and opt out).

Job specs advertise their kind with a ``kind`` class attribute; the
common spec surface (``key``, ``describe()``, ``label()``, and the
``workload``/``scale``/``seed`` scheduling hints) is unchanged.

Builtin kinds register at import time of their home module; lookups
that miss trigger :func:`ensure_builtin_kinds`, which imports those
modules, so a fresh worker process resolves any builtin kind without
the parent having to pre-import anything.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

#: Modules whose import registers the builtin job kinds.  This is a
#: plugin-loading list, not a dispatch table: execution always goes
#: through the registered :class:`JobKind` object.
_BUILTIN_MODULES = (
    "repro.runtime.worker",      # sim, mix
    "repro.fuzz.campaign",       # fuzz
    "repro.trace.capture",       # trace
)


class JobKind:
    """Everything the runtime needs to know about one job family."""

    __slots__ = ("name", "spec_type", "result_type", "execute",
                 "decode_spec", "encode_result", "cacheable")

    def __init__(self, name: str, spec_type: type, result_type: type,
                 execute: Callable[[Any], Any],
                 decode_spec: Optional[Callable[[Dict[str, Any]], Any]] = None,
                 encode_result: Optional[Callable[[Any], Dict[str, Any]]] = None,
                 cacheable: bool = True):
        self.name = name
        self.spec_type = spec_type
        self.result_type = result_type
        self.execute = execute
        self.decode_spec = decode_spec
        self.encode_result = encode_result
        self.cacheable = cacheable

    def __repr__(self) -> str:
        return (f"JobKind({self.name!r}, {self.spec_type.__name__} -> "
                f"{self.result_type.__name__})")


_KINDS: Dict[str, JobKind] = {}
_ENSURED = False


def register_kind(kind: JobKind) -> JobKind:
    """Register *kind* (idempotent for an identical re-registration)."""
    existing = _KINDS.get(kind.name)
    if existing is not None and existing.spec_type is not kind.spec_type:
        raise RuntimeError(
            f"job kind {kind.name!r} already registered for "
            f"{existing.spec_type.__name__}")
    _KINDS[kind.name] = kind
    return kind


def ensure_builtin_kinds() -> None:
    """Import every module that registers a builtin kind (once)."""
    global _ENSURED
    if _ENSURED:
        return
    _ENSURED = True
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def registered_kinds() -> Dict[str, JobKind]:
    """Name -> kind for every registered kind (builtin kinds loaded)."""
    ensure_builtin_kinds()
    return dict(_KINDS)


def get_kind(name: str) -> JobKind:
    """The kind registered under *name*; unknown names fail loudly."""
    ensure_builtin_kinds()
    kind = _KINDS.get(name)
    if kind is None:
        raise RuntimeError(
            f"unknown job kind {name!r}; registered kinds: "
            f"{', '.join(sorted(_KINDS)) or '(none)'}")
    return kind


def kind_for(job: Any) -> JobKind:
    """The :class:`JobKind` a job spec belongs to.

    A spec without a ``kind`` attribute or with an unregistered one
    raises ``RuntimeError`` naming the registered kinds.
    """
    name = getattr(job, "kind", None)
    if name is None:
        raise RuntimeError(
            f"job spec {type(job).__name__} declares no job kind; "
            f"registered kinds: "
            f"{', '.join(sorted(registered_kinds())) or '(none)'}")
    return get_kind(name)


def decode_job(payload: Dict[str, Any]) -> Any:
    """Build a job spec from a service-submission payload.

    The payload names its kind (``{"kind": "sim", ...}``); the kind's
    ``decode_spec`` does the rest.  Kinds without a decoder are not
    submittable and say so.
    """
    if not isinstance(payload, dict):
        raise RuntimeError(f"job payload must be an object, "
                           f"got {type(payload).__name__}")
    kind = get_kind(payload.get("kind", "<missing>"))
    if kind.decode_spec is None:
        submittable = sorted(name for name, k in registered_kinds().items()
                             if k.decode_spec is not None)
        raise RuntimeError(
            f"job kind {kind.name!r} is not submittable over the service "
            f"API; submittable kinds: {', '.join(submittable) or '(none)'}")
    return kind.decode_spec(payload)


def encode_result(job: Any, result: Any) -> Dict[str, Any]:
    """JSON-able rendering of *result* via the job's kind."""
    kind = kind_for(job)
    if kind.encode_result is None:
        return {"repr": repr(result)}
    return kind.encode_result(result)
