"""Shared infrastructure for the experiment modules.

Each timing experiment declares its whole simulation grid up front —
``{cell: SimJob | MixJob}`` — and resolves it with :func:`run_jobs`,
which answers what it can from a per-process memo and sends the rest to
the :mod:`repro.runtime` session as one batch (dedup, persistent store,
worker pool, retries).  Figures share configurations (the (2+0) baseline
appears in Figures 7, 9, 10 and 11), so the memo and the store make a
repeated cell free.

``REPRO_SCALE`` (environment) globally scales trace lengths; 1.0 uses the
default scaled-Table-2 lengths, 0.25 makes every experiment 4x faster at
some statistical noise cost.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import (Any, Dict, Hashable, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.core.config import MachineConfig
from repro.runtime.engine import EngineReport, RuntimeSession
from repro.runtime.job import SimJob
from repro.vm.trace import Trace
from repro.workloads.builder import build_trace
from repro.workloads.spec import get_spec

DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))

#: job key -> result, for every job this process has resolved.
_RESULTS: Dict[str, Any] = {}
#: The engine report of every batch :func:`run_jobs` has sent (the
#: runner writes its manifest from their union).
REPORTS: List[EngineReport] = []
_SESSION: Optional[RuntimeSession] = None


@lru_cache(maxsize=None)
def trace_for(name: str, scale: float = 1.0, seed: int = 1) -> Trace:
    """The dynamic trace for workload *name* at the given scale.

    Memoised per process (on top of the builder's own cache) so config
    sweeps over one workload never recompute the scale arithmetic or
    regenerate the trace — including inside pool workers, where each
    process pays for a trace at most once.
    """
    if name.startswith("mini."):
        return build_trace(name, seed=seed)
    length = max(10_000, int(get_spec(name).default_length * scale))
    return build_trace(name, length=length, seed=seed)


def runtime_session() -> RuntimeSession:
    """The active runtime session (a sequential, env-configured default
    until :func:`configure_runtime` installs one)."""
    global _SESSION
    if _SESSION is None:
        _SESSION = RuntimeSession()
    return _SESSION


def configure_runtime(session: Optional[RuntimeSession] = None,
                      **kwargs) -> RuntimeSession:
    """Install the session :func:`run_jobs` should use.

    Pass a prebuilt :class:`RuntimeSession`, or keyword arguments
    (``jobs=``, ``cache_dir=``, ``no_cache=``, ``timeout=``, ...) to build
    one.  Returns the installed session.
    """
    global _SESSION
    _SESSION = session if session is not None else RuntimeSession(**kwargs)
    return _SESSION


def run_jobs(grid: Mapping[Hashable, Any]) -> Dict[Hashable, Any]:
    """Resolve every cell of *grid* (``{cell: job}``) to its result.

    Memo misses go to the session's engine as one batch; raises
    :class:`SimulationError` naming the first job that still failed
    after the engine's retries.
    """
    misses = [job for job in grid.values() if job.key not in _RESULTS]
    if misses:
        report = runtime_session().run(misses)
        REPORTS.append(report)
        _RESULTS.update(report.results())
        report.raise_failures()
    return {cell: _RESULTS[job.key] for cell, job in grid.items()}


def sim_grid(programs: Sequence[str],
             configs: Mapping[Hashable, MachineConfig],
             scale: float) -> Dict[Tuple[str, Hashable], SimJob]:
    """``{(program, label): SimJob}`` for every program x labelled config."""
    return {(name, label): SimJob(name, config, scale=scale)
            for name in programs for label, config in configs.items()}


def clear_result_cache() -> None:
    """Drop memoised simulation results, batch reports and traces."""
    _RESULTS.clear()
    REPORTS.clear()
    trace_for.cache_clear()


def nm_config(n: int, m: int, fast_forwarding: bool = False,
              combining: int = 1, **overrides) -> MachineConfig:
    """Shorthand for the paper's ``(N+M)`` configuration."""
    return MachineConfig.baseline(
        l1_ports=n, lvc_ports=m,
        fast_forwarding=fast_forwarding, combining=combining,
        **overrides,
    )


def select_programs(programs: Optional[Sequence[str]],
                    default: Sequence[str]) -> Tuple[str, ...]:
    """Experiment program-list plumbing with a default."""
    if programs is None:
        return tuple(default)
    return tuple(programs)
