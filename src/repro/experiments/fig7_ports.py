"""Figure 7: performance of (N+M) configurations (no LVAQ optimizations).

Relative IPC over the (2+0) baseline for N in {2,3,4} and M in
{0,1,2,3,16}.  The paper's shape: a one-port LVC *degrades* performance
(it becomes the bottleneck); two ports restore and beat (N+0) by 1-10%;
three or more ports add little.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

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

N_VALUES = (2, 3, 4)
M_VALUES = (0, 1, 2, 3, 16)


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        n_values: Sequence[int] = N_VALUES,
        m_values: Sequence[int] = M_VALUES,
        fast_forwarding: bool = False,
        combining: int = 1) -> Dict[str, Dict[Tuple[int, int], float]]:
    """Relative IPC of each (N+M) over (2+0), per program."""
    names = select_programs(programs, ALL_PROGRAMS)
    points = {(n, m): nm_config(n, m, fast_forwarding=fast_forwarding,
                                combining=combining if m else 1)
              for n in n_values for m in m_values}
    results = run_jobs(sim_grid(
        names, {"base": nm_config(2, 0), **points}, scale))
    return {
        name: {point: results[name, point].ipc / results[name, "base"].ipc
               for point in points}
        for name in names
    }


def average_surface(
    rows: Dict[str, Dict[Tuple[int, int], float]]
) -> Dict[Tuple[int, int], float]:
    """Geometric mean across programs for every (N, M) point."""
    keys = next(iter(rows.values())).keys()
    return {key: geometric_mean(row[key] for row in rows.values())
            for key in keys}


def render(rows: Dict[str, Dict[Tuple[int, int], float]],
           title: str = "Figure 7: (N+M) performance relative to (2+0)"
           ) -> str:
    keys = sorted(next(iter(rows.values())).keys())
    table = Table(
        ["program"] + [f"({n}+{m})" for n, m in keys],
        precision=3, title=title,
    )
    for name, row in rows.items():
        table.add_row(name, *[row[k] for k in keys])
    avg = average_surface(rows)
    table.add_row("geomean", *[avg[k] for k in keys])
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
