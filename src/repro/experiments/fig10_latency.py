"""Figure 10: sensitivity to cache access latency.

Compares, relative to the (2+0) baseline:

* (2+2) with the standard 2-cycle L1 / 1-cycle LVC,
* (4+0) with a 2-cycle hit, and
* (4+0) with a 3-cycle hit (the "wire-limited big multi-ported cache"
  scenario the paper motivates).

Paper shape: the 3-cycle (4+0) loses up to ~13% versus the 2-cycle (4+0)
and can fall below (2+0); (2+2) beats the 3-cycle (4+0) on the integer
programs but not on FP programs, whose local/non-local accesses are too
poorly interleaved to use both caches at once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_SCALE,
    nm_config,
    run_jobs,
    select_programs,
    sim_grid,
)
from repro.stats.report import Table
from repro.workloads.spec import ALL_PROGRAMS

CONFIG_NAMES = ("(2+0)", "(2+2)", "(4+0)", "(4+0) 3cyc")


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        optimized: bool = True) -> Dict[str, Dict[str, float]]:
    """Relative IPC over (2+0) for the Figure 10 configurations."""
    names = select_programs(programs, ALL_PROGRAMS)
    results = run_jobs(sim_grid(names, {
        "(2+0)": nm_config(2, 0),
        "(2+2)": nm_config(2, 2, fast_forwarding=optimized,
                           combining=2 if optimized else 1),
        "(4+0)": nm_config(4, 0),
        "(4+0) 3cyc": nm_config(4, 0, l1_hit_latency=3),
    }, scale))
    return {
        name: {label: results[name, label].ipc / results[name, "(2+0)"].ipc
               for label in CONFIG_NAMES}
        for name in names
    }


def render(rows: Dict[str, Dict[str, float]]) -> str:
    table = Table(
        ["program"] + list(CONFIG_NAMES),
        precision=3,
        title="Figure 10: cache-latency sensitivity (relative to (2+0))",
    )
    for name, row in rows.items():
        table.add_row(name, *[row[c] for c in CONFIG_NAMES])
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
