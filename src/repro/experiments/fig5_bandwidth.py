"""Figure 5: program bandwidth requirements.

Relative performance of (N+0) configurations, N = 1..5, against the
(16+0) maximum-bandwidth limit case.  The paper's findings: a 3-4 port
cache saturates; 2 ports reach ~90% of the limit on average; ``130.li``
and ``147.vortex`` are the most bandwidth-sensitive programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_SCALE,
    nm_config,
    run_jobs,
    select_programs,
    sim_grid,
)
from repro.stats.report import Table
from repro.utils import geometric_mean
from repro.workloads.spec import ALL_PROGRAMS

PORT_COUNTS = (1, 2, 3, 4, 5)
LIMIT_PORTS = 16


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        ports: Sequence[int] = PORT_COUNTS) -> Dict[str, Dict[int, float]]:
    """Relative IPC of each (N+0) over (16+0), per program."""
    names = select_programs(programs, ALL_PROGRAMS)
    results = run_jobs(sim_grid(
        names, {n: nm_config(n, 0) for n in (*ports, LIMIT_PORTS)}, scale))
    return {
        name: {n: results[name, n].ipc / results[name, LIMIT_PORTS].ipc
               for n in ports}
        for name in names
    }


def average_curve(rows: Dict[str, Dict[int, float]]) -> Dict[int, float]:
    """Geometric-mean relative performance per port count."""
    ports = sorted(next(iter(rows.values())))
    return {
        n: geometric_mean(row[n] for row in rows.values()) for n in ports
    }


def render(rows: Dict[str, Dict[int, float]]) -> str:
    ports = sorted(next(iter(rows.values())))
    table = Table(
        ["program"] + [f"({n}+0)" for n in ports],
        precision=3,
        title="Figure 5: relative performance of (N+0) vs (16+0)",
    )
    for name, row in rows.items():
        table.add_row(name, *[row[n] for n in ports])
    avg = average_curve(rows)
    table.add_row("geomean", *[avg[n] for n in ports])
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
