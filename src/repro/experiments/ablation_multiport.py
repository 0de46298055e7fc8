"""Ablation: real multi-port implementations vs the ideal assumption.

Section 1 of the paper motivates data decoupling by the shortcomings of
real multi-ported caches: replication throttles stores (every store
broadcasts to all copies), and interleaving suffers bank conflicts.  This
ablation quantifies those shortcomings in our model and shows where the
decoupled `(2+2)` design lands relative to them — the comparison the
paper argues qualitatively.

Configurations (all with the Table 1 machine):

* ``ideal(4+0)``      — four ideal ports (the paper's assumption),
* ``banked(4+0)``     — a 4-bank interleaved cache,
* ``banked8(4+0)``    — 8 banks but still 4 requests/cycle,
* ``replicated(4+0)`` — four replicated copies (stores broadcast),
* ``ideal(2+2)``      — the decoupled design with both optimizations.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.config import MachineConfig
from repro.experiments.common import (
    DEFAULT_SCALE,
    run_jobs,
    select_programs,
    sim_grid,
)
from repro.stats.report import Table
from repro.utils import geometric_mean
from repro.workloads.spec import INT_PROGRAMS

CONFIG_NAMES = ("ideal(4+0)", "banked(4+0)", "banked8(4+0)",
                "replicated(4+0)", "ideal(2+2)")


def _configs() -> Dict[str, MachineConfig]:
    return {
        "ideal(4+0)": MachineConfig.baseline(l1_ports=4, lvc_ports=0),
        "banked(4+0)": MachineConfig.baseline(
            l1_ports=4, lvc_ports=0, l1_port_policy="banked"
        ),
        "banked8(4+0)": MachineConfig.baseline(
            l1_ports=8, lvc_ports=0, l1_port_policy="banked"
        ),
        "replicated(4+0)": MachineConfig.baseline(
            l1_ports=4, lvc_ports=0, l1_port_policy="replicated"
        ),
        "ideal(2+2)": MachineConfig.baseline(
            l1_ports=2, lvc_ports=2, fast_forwarding=True, combining=2
        ),
    }


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None
        ) -> Dict[str, Dict[str, float]]:
    """IPC relative to ideal(4+0) for each implementation, per program."""
    names = select_programs(programs, INT_PROGRAMS)
    results = run_jobs(sim_grid(names, _configs(), scale))
    return {
        name: {label: (results[name, label].ipc
                       / results[name, "ideal(4+0)"].ipc)
               for label in CONFIG_NAMES}
        for name in names
    }


def render(rows: Dict[str, Dict[str, float]]) -> str:
    table = Table(
        ["program"] + list(CONFIG_NAMES),
        precision=3,
        title=("Ablation: multi-port implementations relative to the "
               "ideal 4-port cache"),
    )
    for name, row in rows.items():
        table.add_row(name, *[row[c] for c in CONFIG_NAMES])
    table.add_row(
        "geomean",
        *[geometric_mean(row[c] for row in rows.values())
          for c in CONFIG_NAMES],
    )
    return table.render()


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
