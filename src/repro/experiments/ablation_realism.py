"""Ablation: how much of the paper's result survives realistic timing.

The paper's machine (Section 3.1) assumes an ideal memory front: every
port is available every cycle, fetch never misses, branches never
redirect.  This ablation re-runs the Figure 9 comparison — the
conventional ``(2+0)`` machine vs the optimized decoupled ``(2+2)``
machine — under the realism knobs this reproduction adds:

* **ports**: ``ideal`` per-cycle budgets vs the ``finite`` contended
  arbiter with per-bank conflict accounting (``repro.mem.ports``);
* **frontend**: the ``perfect`` frontend vs a ``gshare`` + finite
  I-cache timing model that charges redirect and fetch bubbles
  (``repro.core.frontend``).

Each cell reports the optimized machine's IPC relative to the
conventional machine *under the same realism assumptions*, so the table
answers: does decoupling's benefit persist when the surrounding machine
stops being ideal?
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

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

#: (ports policy, frontend policy) per column, in render order.
REALISM_GRID = (
    ("ideal", "perfect"),
    ("finite", "perfect"),
    ("ideal", "gshare"),
    ("finite", "gshare"),
)

CONFIG_NAMES = tuple(f"{ports}+{fe}" for ports, fe in REALISM_GRID)


def _machine(optimized: bool, ports: str, frontend: str) -> MachineConfig:
    """A Figure 9 machine under the given realism assumptions."""
    if optimized:
        config = MachineConfig.baseline(
            l1_ports=2, lvc_ports=2, fast_forwarding=True, combining=2
        )
    else:
        config = MachineConfig.baseline(l1_ports=2, lvc_ports=0)
    config.mem.l1_port_policy = ports
    if config.decoupled:
        config.mem.lvc_port_policy = ports
    config.frontend.policy = frontend
    return config


def _configs() -> Dict[Tuple[str, bool], MachineConfig]:
    """{(cell name, optimized): machine}: the (2+0) and the (2+2:opt)
    machine of every realism cell."""
    return {
        (name, optimized): _machine(optimized, ports, frontend)
        for name, (ports, frontend) in zip(CONFIG_NAMES, REALISM_GRID)
        for optimized in (False, True)
    }


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None
        ) -> Dict[str, Dict[str, float]]:
    """Optimized-over-conventional IPC ratio per realism cell, per program."""
    names = select_programs(programs, INT_PROGRAMS)
    results = run_jobs(sim_grid(names, _configs(), scale))
    return {
        name: {label: (results[name, (label, True)].ipc
                       / results[name, (label, False)].ipc)
               for label in CONFIG_NAMES}
        for name in names
    }


def render(rows: Dict[str, Dict[str, float]]) -> str:
    table = Table(
        ["program"] + list(CONFIG_NAMES),
        precision=3,
        title=("Ablation: optimized (2+2) over conventional (2+0) under "
               "realistic ports / frontend"),
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
