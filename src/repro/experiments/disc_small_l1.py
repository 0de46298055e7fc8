"""Section 4.4 discussion: is a tiny, fast L1 a better fix?

The paper considers the alternative of simply shrinking the whole L1 to
2 KB to make it fast (1-cycle) and backing it with the L2.  Its
preliminary result: "the inevitably higher miss rates negate the
performance gain due to a short access latency unless the L2 cache
latency is less than four cycles."

This experiment reproduces that study: a 2 KB 1-cycle L1 (2 ideal ports)
versus the standard 32 KB 2-cycle L1, sweeping the L2 latency.
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
from repro.utils import geometric_mean
from repro.workloads.spec import INT_PROGRAMS

L2_LATENCIES = (2, 4, 8, 12)


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        l2_latencies: Sequence[int] = L2_LATENCIES
        ) -> Dict[str, Dict[int, float]]:
    """IPC of the small fast L1 relative to the standard L1, per L2 latency.

    Values above 1.0 mean the small L1 wins at that L2 latency.
    """
    names = select_programs(programs, INT_PROGRAMS)
    configs = {}
    for latency in l2_latencies:
        configs["standard", latency] = nm_config(2, 0, l2_latency=latency)
        configs["small", latency] = nm_config(
            2, 0, l1_size=2 * 1024, l1_assoc=1, l1_hit_latency=1,
            l2_latency=latency)
    results = run_jobs(sim_grid(names, configs, scale))
    return {
        name: {latency: (results[name, ("small", latency)].ipc
                         / results[name, ("standard", latency)].ipc)
               for latency in l2_latencies}
        for name in names
    }


def crossover_latency(rows: Dict[str, Dict[int, float]]) -> int:
    """Largest swept L2 latency at which the small L1 still wins on
    (geometric) average; 0 if it never wins."""
    latencies = sorted(next(iter(rows.values())))
    winning = [
        lat for lat in latencies
        if geometric_mean(row[lat] for row in rows.values()) > 1.0
    ]
    return max(winning) if winning else 0


def render(rows: Dict[str, Dict[int, float]]) -> str:
    latencies = sorted(next(iter(rows.values())))
    table = Table(
        ["program"] + [f"L2={lat}cyc" for lat in latencies],
        precision=3,
        title=("Section 4.4: 2KB 1-cycle L1 relative to 32KB 2-cycle L1 "
               "(>1 means the small cache wins)"),
    )
    for name, row in rows.items():
        table.add_row(name, *[row[lat] for lat in latencies])
    table.add_row(
        "geomean",
        *[geometric_mean(row[lat] for row in rows.values())
          for lat in latencies],
    )
    return table.render()


def main() -> None:
    rows = run()
    print(render(rows))
    print(f"\nsmall-L1 crossover: wins only when L2 latency <= "
          f"{crossover_latency(rows)} cycles (paper: < 4 cycles)")


if __name__ == "__main__":
    main()
