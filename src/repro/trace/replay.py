"""Trace-driven replay: pre-decoded flat arrays straight into the kernel.

Replay is the hot path the capture layer exists for.
:func:`replay_insts` resolves a serialized committed stream
(:mod:`repro.trace.format`) to its :class:`~repro.vm.trace.DynInst`
sequence — from the per-process materialization memo, else the ``.pdt``
sidecar, else the raw trace (:mod:`repro.trace.predecode`) — and
:func:`replay_fast` hands it to the **unmodified** staged timing kernel:
no VM, no compiler, no workload generator on the path.  Because the
kernel consumes only the committed stream (frontend gate lists are a
pure function of it, recomputed at bind time), a replayed run is
**bit-identical** to the execution-driven run it was captured from:
same cycles, same instruction count, same counter dictionary, for every
machine configuration.  :func:`check_replay_equivalence` enforces that
over the golden matrix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.core.processor import Processor
from repro.vm.trace import Trace

TraceSource = Union[str, Trace]


def replay_insts(source: TraceSource,
                 verify: bool = True) -> Tuple[List, str]:
    """The committed stream for *source*: ``(insts, workload name)``.

    A trace file path is routed through :mod:`repro.trace.predecode`:
    a ``.pdt`` sidecar next to the file is used when present and
    matching (checksummed, source-hash-checked), else the tables are
    loaded in memory from the raw trace; either way the ``DynInst``
    materialization is memoized per process, so repeats and config
    sweeps over one trace decode it once.  The stream is bit-identical
    to ``decode_trace(...).insts``.
    """
    if isinstance(source, Trace):
        return source.insts, source.name
    from repro.errors import TraceError
    from repro.trace import predecode as _pd
    from repro.trace.format import read_header

    header = read_header(source)
    source_sha = header.get("payload_sha256")
    if source_sha:
        cached = _pd.materialized_cached(source_sha)
        if cached is not None:
            return cached, header.get("workload", "<trace>")
    pdt = None
    if source.endswith(".trace"):
        try:
            pdt = _pd.read_predecoded(
                source[:-len(".trace")] + ".pdt", verify=verify)
            if pdt.source_sha256 != source_sha:
                pdt = None  # sidecar derived from an older capture
        except TraceError:
            pdt = None  # absent, stale, or corrupt — derive below
    if pdt is None:
        with open(source, "rb") as handle:
            data = handle.read()
        pdt = _pd.predecode_trace(data, origin=source, verify=verify)
    return _pd.materialized_insts(pdt), pdt.workload


def replay_fast(source: TraceSource, config: MachineConfig,
                workload: Optional[str] = None,
                verify: bool = True) -> SimResult:
    """Run one timing simulation from a captured trace.

    *source* is a trace file path or an already-loaded :class:`Trace`;
    the stream comes from :func:`replay_insts`.  The result is
    indistinguishable from ``Processor(config).run(...)`` over the
    execution-driven stream.
    """
    insts, name = replay_insts(source, verify=verify)
    return Processor(config).run(insts, workload if workload else name)


def check_replay_equivalence(
    workloads: Sequence[str],
    configs: Optional[Iterable[Tuple[str, Dict]]] = None,
    length: int = 20_000,
    seed: int = 1,
) -> List:
    """Round-trip equivalence sweep: serialize → decode → replay → diff.

    For each workload the execution-driven stream is built once, pushed
    through the full encode/decode round trip, and both streams are
    simulated on every golden configuration.  Returns every
    :class:`repro.perf.golden.Mismatch` (empty list = replay is
    bit-identical across the matrix).
    """
    from repro.perf.golden import GOLDEN_CONFIGS, diff_results
    from repro.trace.format import decode_trace, encode_trace
    from repro.workloads.builder import build_trace

    if configs is None:
        configs = GOLDEN_CONFIGS
    configs = tuple(configs)
    mismatches: List = []
    for workload in workloads:
        direct = build_trace(workload, length=length, seed=seed)
        replayed = decode_trace(encode_trace(direct),
                                origin=f"<capture:{workload}>")
        for config_name, kwargs in configs:
            config = MachineConfig.baseline(**kwargs)
            expected = Processor(config).run(direct.insts, workload)
            actual = Processor(config).run(replayed.insts, workload)
            mismatches.extend(
                diff_results(workload, config_name, expected, actual))
    return mismatches
