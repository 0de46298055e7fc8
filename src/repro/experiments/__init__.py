"""Experiment harness: one module per paper table/figure.

Every module exposes ``run(scale=..., programs=...) -> rows`` returning the
data behind the paper's table or figure, and a module-level ``main()`` that
prints it.  A timing experiment declares its whole simulation grid once
and resolves it with :func:`run_jobs`, one batch through the
:mod:`repro.runtime` job engine (parallel workers + persistent store).
``repro-experiments <name>`` (see :mod:`repro.experiments.runner`) is the
command-line entry point.
"""

from repro.experiments.common import (
    DEFAULT_SCALE,
    configure_runtime,
    run_jobs,
    runtime_session,
    trace_for,
)

__all__ = [
    "DEFAULT_SCALE",
    "configure_runtime",
    "run_jobs",
    "runtime_session",
    "trace_for",
]
