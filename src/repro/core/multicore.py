"""Lockstep multi-core co-simulation for multi-programmed mixes.

``run_mix`` runs N independent cores — one captured trace each, private
L1/LVC/ports/window — on one global clock, with the L2 tags and the
L1/L2 bus shared via :class:`repro.mem.shared.SharedMemory`.  Each core
is the same specialized cycle generator a solo run executes
(:func:`repro.core.stages.specialize.kernel_for`), and
:func:`repro.core.processor.step_cores` steps all N exactly as it steps
the one of a solo run: in core order within a cycle, each core only at
or after its own wake cycle, with the clock jumping to the earliest
wake when every live core sleeps.  A mix of **one** program is
therefore bit-identical to a solo run of that program — the anchor the
mix tests pin.  With two or more programs the only coupling is the
shared miss path, which is where the interference counters (``mix.*``)
come from.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import SimulationError
from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.core.processor import Processor, step_cores
from repro.core.stages import specialize
from repro.core.stages.state import CoreState
from repro.mem.shared import SharedMemory
from repro.vm.trace import DynInst


def run_mix(
    traces: Sequence[Tuple[str, Sequence[DynInst]]],
    config: MachineConfig,
) -> List[SimResult]:
    """Co-schedule *traces* on independent cores sharing L2 + bus.

    *traces* is a sequence of ``(program name, committed stream)``
    pairs, one core each.  Returns one :class:`SimResult` per program,
    in input order: ``cycles`` is the cycle its core finished (global
    clock — programs in a mix share time), counters are that core's own
    plus its ``mix.*`` interference counters.
    """
    if not traces:
        raise SimulationError("a mix needs at least one trace")
    processors = [Processor(config) for _ in traces]
    shared = SharedMemory(config.mem, len(processors))
    for i, processor in enumerate(processors):
        shared.attach(processor.hierarchy, i)

    limit = sum(len(insts) for _, insts in traces) * 80 + 1000 * len(traces)
    kernels = []
    for processor, (_name, insts) in zip(processors, traces):
        state = CoreState(processor, insts)
        kernel = specialize.kernel_for(processor, state)
        kernels.append(kernel(processor, state, limit))
    outs = step_cores(kernels, limit)

    unfinished = [(name, out[1], len(insts))
                  for (name, insts), out in zip(traces, outs) if out[4]]
    if unfinished:
        name, committed, total = min(
            unfinished, key=lambda u: u[1] / max(u[2], 1))
        raise SimulationError(
            f"mix cycle limit exceeded ({limit}) with "
            f"{len(unfinished)}/{len(traces)} programs unfinished; "
            f"slowest program {name!r} at {committed}/{total} committed")
    return [processor._result(out, len(insts), name)
            for processor, (name, insts), out
            in zip(processors, traces, outs)]
