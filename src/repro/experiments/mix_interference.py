"""Multi-programmed interference: what co-scheduling costs each program.

The paper evaluates a single program per machine.  With the trace
capture/replay engine (:mod:`repro.trace`) the same staged kernel can
run N committed streams on N cores that share the L2 and the memory bus
(:func:`repro.core.multicore.run_mix`), so this experiment asks the
natural follow-on question: does decoupling local-variable accesses
change how much a program *suffers* from a co-runner?

For each program pair, each program runs twice on the conventional
``(2+0)`` machine and the optimized decoupled ``(2+2:opt)`` machine:

* **solo** — alone, the paper's setting (execution-driven numbers;
  a 1-program mix is bit-identical by construction);
* **mixed** — alongside its partner with a shared L2 and bus.

The reported **slowdown** is solo IPC over mixed IPC (1.0 = no
interference).  The ``mix.*`` counters attribute the damage: bus
conflict cycles the program absorbed and L2 lines a co-runner evicted
from under it.  Decoupling diverts the (overwhelmingly local) stack
traffic away from the shared hierarchy, so the working hypothesis is
that the optimized machine interferes *less* per instruction — the
LVC acts as per-core bandwidth the bus never sees.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_SCALE,
    nm_config,
    run_jobs,
    sim_grid,
)
from repro.runtime.job import MixJob
from repro.stats.report import Table
from repro.utils import geometric_mean

#: Program pairs, chosen to mix cache-hungry and compute-leaning codes.
MIX_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("129.compress", "130.li"),
    ("126.gcc", "134.perl"),
    ("099.go", "147.vortex"),
)

#: label -> machine under test (the Figure 9 endpoints).
CONFIGS = {
    "(2+0)": lambda: nm_config(2, 0),
    "(2+2:opt)": lambda: nm_config(2, 2, fast_forwarding=True, combining=2),
}


def run(scale: float = DEFAULT_SCALE,
        pairs: Optional[Sequence[Tuple[str, str]]] = None
        ) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """{pair label: {config label: {program: metrics}}}.

    Per-program metrics: ``solo_ipc``, ``mix_ipc``, ``slowdown``, plus
    the bus-conflict stall cycles and suffered L2 evictions.
    """
    pairs = tuple(pairs) if pairs is not None else MIX_PAIRS
    machines = {label: make() for label, make in CONFIGS.items()}
    # Solo cells are keyed (program, label), mix cells (pair, label).
    grid = sim_grid(sorted({name for pair in pairs for name in pair}),
                    machines, scale)
    grid.update({(pair, label): MixJob(pair, config, scale=scale)
                 for pair in pairs for label, config in machines.items()})
    results = run_jobs(grid)
    rows: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for pair in pairs:
        pair_label = "+".join(pair)
        rows[pair_label] = {}
        for label in CONFIGS:
            cell: Dict[str, Dict[str, float]] = {}
            for name in pair:
                solo = results[name, label]
                sliced = results[pair, label].slice(name)
                cell[name] = {
                    "solo_ipc": solo.ipc,
                    "mix_ipc": sliced.ipc,
                    "slowdown": solo.ipc / sliced.ipc,
                    "bus_conflict_stalls":
                        sliced.counters.get("mix.bus_conflict_stalls"),
                    "l2_evictions_suffered":
                        sliced.counters.get("mix.l2_evictions_suffered"),
                }
            rows[pair_label][label] = cell
    return rows


def render(rows: Dict[str, Dict[str, Dict[str, Dict[str, float]]]]) -> str:
    table = Table(
        ["mix", "config", "program", "solo IPC", "mix IPC", "slowdown",
         "bus stall cyc", "L2 evict'd"],
        precision=3,
        title="Multi-programmed interference: solo vs shared-L2 mix",
    )
    slowdowns: Dict[str, list] = {label: [] for label in CONFIGS}
    for pair_label, by_config in rows.items():
        for config_label, cell in by_config.items():
            for program, metrics in cell.items():
                slowdowns[config_label].append(metrics["slowdown"])
                table.add_row(
                    pair_label, config_label, program,
                    metrics["solo_ipc"], metrics["mix_ipc"],
                    metrics["slowdown"],
                    int(metrics["bus_conflict_stalls"]),
                    int(metrics["l2_evictions_suffered"]),
                )
    lines = [table.render(), ""]
    for config_label, values in slowdowns.items():
        lines.append(
            f"geomean slowdown on {config_label}: "
            f"{geometric_mean(values):.3f}x")
    return "\n".join(lines)


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
