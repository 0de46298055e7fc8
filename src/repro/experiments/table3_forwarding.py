"""Table 3: speedup from fast data forwarding under the (3+2) configuration.

The paper reports speedups of 0% (124.m88ksim, whose store->reload
distances are too long for anything to still be in the LVAQ) up to 3.9%,
with 129.compress benefiting despite few local accesses because ~80% of
its local loads find their value in the LVAQ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_SCALE,
    nm_config,
    run_jobs,
    select_programs,
    sim_grid,
)
from repro.stats.report import Table
from repro.workloads.spec import ALL_PROGRAMS

N_PORTS = 3
M_PORTS = 2


class Table3Row:
    """Fast-forwarding outcome for one program."""

    def __init__(self, program: str, speedup: float, forward_rate: float,
                 fast_forwards: int, lvaq_loads: int):
        self.program = program
        self.speedup = speedup
        self.forward_rate = forward_rate
        self.fast_forwards = fast_forwards
        self.lvaq_loads = lvaq_loads


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None) -> List[Table3Row]:
    """Speedup of (3+2)+fast-forwarding over plain (3+2), per program."""
    names = select_programs(programs, ALL_PROGRAMS)
    results = run_jobs(sim_grid(names, {
        "base": nm_config(N_PORTS, M_PORTS),
        "fast": nm_config(N_PORTS, M_PORTS, fast_forwarding=True),
    }, scale))
    rows: List[Table3Row] = []
    for name in names:
        base, fast = results[name, "base"], results[name, "fast"]
        rows.append(Table3Row(
            name,
            fast.ipc / base.ipc - 1.0,
            fast.lvaq_forward_rate,
            fast.counters.get("lvaq.fast_forwards"),
            fast.counters.get("lvaq.loads"),
        ))
    return rows


def render(rows: List[Table3Row]) -> str:
    table = Table(
        ["program", "speedup %", "LVAQ fwd rate", "fast fwds", "LVAQ loads"],
        precision=2,
        title="Table 3: fast data forwarding speedup under (3+2)",
    )
    for row in rows:
        table.add_row(row.program, 100 * row.speedup, row.forward_rate,
                      row.fast_forwards, row.lvaq_loads)
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
