"""Compiler optimization levels vs the decoupled memory pipeline.

The paper's workloads come out of ``cc -O2``; its Figure 2 local-access
fractions and Figure 9 LVAQ speedups are properties of *optimized* code.
This experiment asks how much that matters: every mini-C workload is
compiled at **O0** (naive lowering) and at **O2** (the SSA mid-end,
:mod:`repro.lang.pipeline`) and both binaries run through the same two
machines —

* the ``(2+0)`` baseline, and
* the ``(2+2:opt)`` decoupled machine (fast forwarding, 2-way combining
  — the paper's Figure 9 setting).

Reported per program: dynamic instructions at each level (O2 must
shrink), the Figure-2-style local fraction of memory references at each
level, and the Figure-9-style LVAQ speedup at each level.  The paper
shape: optimization removes redundant computation but *not* the
local-variable traffic pattern — the local fraction stays high at O2 and
the LVAQ speedup survives (often grows, since the remaining instructions
are denser in memory references).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (DEFAULT_SCALE, nm_config, run_jobs,
                                      select_programs, sim_grid, trace_for)
from repro.stats.report import Table
from repro.workloads.minic import MINIC_PROGRAMS

PROGRAMS = tuple(sorted(MINIC_PROGRAMS))
LEVELS = (0, 2)


def configs() -> Dict[str, object]:
    """The two machines each binary is timed on."""
    return {
        "2+0": nm_config(2, 0),
        "2+2:opt": nm_config(2, 2, fast_forwarding=True, combining=2),
    }


class OptRow:
    """One program's O0-vs-O2 comparison."""

    def __init__(self, program: str):
        self.program = program
        self.instructions: Dict[int, int] = {}
        self.local_fraction: Dict[int, float] = {}
        self.lvaq_speedup: Dict[int, float] = {}

    @property
    def inst_ratio(self) -> float:
        return self.instructions[2] / self.instructions[0]


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None) -> List[OptRow]:
    """Measure every program at each level on both machines."""
    names = select_programs(programs, PROGRAMS)
    results = run_jobs(sim_grid(
        [f"{name}@O{level}" for name in names for level in LEVELS],
        configs(), scale))
    rows: List[OptRow] = []
    for name in names:
        row = OptRow(name)
        for level in LEVELS:
            workload = f"{name}@O{level}"
            trace = trace_for(workload, scale)
            row.instructions[level] = trace.stats.instructions
            row.local_fraction[level] = trace.stats.local_fraction
            row.lvaq_speedup[level] = (results[workload, "2+2:opt"].ipc
                                       / results[workload, "2+0"].ipc)
        rows.append(row)
    return rows


def render(rows: List[OptRow]) -> str:
    table = Table(
        ["program", "insts O0", "insts O2", "O2/O0",
         "local O0", "local O2", "LVAQ spdup O0", "LVAQ spdup O2"],
        precision=3,
        title="Optimization levels: local accesses and LVAQ speedup, "
              "O0 vs O2",
    )
    for row in rows:
        table.add_row(row.program,
                      row.instructions[0], row.instructions[2],
                      row.inst_ratio,
                      row.local_fraction[0], row.local_fraction[2],
                      row.lvaq_speedup[0], row.lvaq_speedup[2])
    avg = lambda f: sum(f(r) for r in rows) / len(rows)
    table.add_row("average", "", "",
                  avg(lambda r: r.inst_ratio),
                  avg(lambda r: r.local_fraction[0]),
                  avg(lambda r: r.local_fraction[2]),
                  avg(lambda r: r.lvaq_speedup[0]),
                  avg(lambda r: r.lvaq_speedup[2]))
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
