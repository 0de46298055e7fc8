"""Figure 8: effect of access combining under (3+1) and (3+2).

N-way combining looks at up to N consecutive LVAQ entries and merges
same-line references into one (wide) LVC port transaction.  Paper shape:
two-way combining buys ~8% at (3+1) and ~2% at (3+2); ``130.li`` and
``147.vortex`` are outliers (bursty save/restore traffic), and two-way is
the sweet spot.
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
from repro.workloads.spec import INT_PROGRAMS

CONFIGS = ((3, 1), (3, 2))
DEGREES = (1, 2, 4)


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        configs: Sequence[Tuple[int, int]] = CONFIGS,
        degrees: Sequence[int] = DEGREES,
        ) -> Dict[str, Dict[Tuple[int, int, int], float]]:
    """Relative IPC vs the no-combining run, keyed by (N, M, degree)."""
    names = select_programs(programs, INT_PROGRAMS)
    results = run_jobs(sim_grid(names, {
        (n, m, degree): nm_config(n, m, combining=degree)
        for n, m in configs for degree in (1, *degrees)
    }, scale))
    return {
        name: {(n, m, degree): (results[name, (n, m, degree)].ipc
                                / results[name, (n, m, 1)].ipc)
               for n, m in configs for degree in degrees}
        for name in names
    }


def render(rows: Dict[str, Dict[Tuple[int, int, int], float]]) -> str:
    keys = sorted(next(iter(rows.values())).keys())
    table = Table(
        ["program"] + [f"({n}+{m})x{d}" for n, m, d in keys],
        precision=3,
        title="Figure 8: access combining speedup over no combining",
    )
    for name, row in rows.items():
        table.add_row(name, *[row[k] for k in keys])
    table.add_row(
        "geomean",
        *[geometric_mean(row[k] for row in rows.values()) for k in keys],
    )
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
