"""repro.trace — trace capture, replay, and multi-programmed mixes.

The subsystem decouples the functional frontend from the timing kernel:

* :mod:`repro.trace.format` — the versioned struct-of-arrays on-disk
  trace format (encode/decode/read/write/info), and the one container
  codec and ``DynInst`` materializer it shares with the sidecar;
* :mod:`repro.trace.predecode` — the ``.pdt`` sidecar (the trace's
  stream sections, content-addressed to it) and the per-process
  materialization memo;
* :mod:`repro.trace.capture` — content-addressed capture store keyed by
  a frontend-only code salt;
* :mod:`repro.trace.replay` — trace-driven simulation (``replay_insts``
  resolves a stream, ``replay_fast`` simulates it), bit-identical to
  execution-driven runs;
* :mod:`repro.trace.mix` — N captured traces co-scheduled on independent
  cores sharing the L2 and the memory bus.
"""

from repro.trace.capture import (
    TraceJob,
    TraceStore,
    capture_salt,
    capture_trace,
)
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    decode_trace,
    encode_trace,
    read_trace,
    trace_info,
    write_trace,
)
from repro.trace.mix import INTERFERENCE_COUNTERS, MixResult, run_mix_jobs
from repro.trace.replay import check_replay_equivalence, replay_fast

__all__ = [
    "INTERFERENCE_COUNTERS",
    "MixResult",
    "run_mix_jobs",
    "TRACE_FORMAT_VERSION",
    "TraceJob",
    "TraceStore",
    "capture_salt",
    "capture_trace",
    "check_replay_equivalence",
    "decode_trace",
    "encode_trace",
    "read_trace",
    "replay_fast",
    "trace_info",
    "write_trace",
]
