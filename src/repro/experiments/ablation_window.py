"""Ablation: instruction-window and LVAQ sizing.

The paper fixes ROB=128, LSQ=64 and "use[s] an LVAQ of 64 entries" without
sweeping them.  This ablation examines those choices in our model:

* the machine needs a substantial ROB to expose the memory parallelism
  decoupling exploits (returns diminish past 128), and
* for the local-heavy programs the LVAQ's capacity is a genuine resource:
  halving it to 32 already costs measurable IPC, so the paper's choice of
  a full-size 64-entry LVAQ is well spent.

Measured on the (3+2) configuration with both optimizations, over the
three most local-variable-heavy integer programs.
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

PROGRAMS = ("147.vortex", "130.li", "126.gcc")
ROB_SIZES = (32, 64, 128, 256)
LVAQ_SIZES = (8, 16, 32, 64)


def _config(rob: int = 128, lvaq: int = 64) -> MachineConfig:
    config = MachineConfig.baseline(l1_ports=3, lvc_ports=2,
                                    fast_forwarding=True, combining=2)
    config.rob_size = rob
    config.lvaq_size = lvaq
    return config


def run(scale: float = DEFAULT_SCALE,
        programs: Optional[Sequence[str]] = None,
        rob_sizes: Sequence[int] = ROB_SIZES,
        lvaq_sizes: Sequence[int] = LVAQ_SIZES,
        ) -> Tuple[Dict[str, Dict[int, float]], Dict[str, Dict[int, float]]]:
    """(ROB rows, LVAQ rows): IPC relative to the ROB=128 / LVAQ=64 base,
    per size, from one simulation grid."""
    names = select_programs(programs, PROGRAMS)
    configs = {("rob", size): _config(rob=size)
               for size in (*rob_sizes, 128)}
    configs.update({("lvaq", size): _config(lvaq=size)
                    for size in (*lvaq_sizes, 64)})
    results = run_jobs(sim_grid(names, configs, scale))

    def relative(axis: str, sizes: Sequence[int], base: int):
        return {name: {size: (results[name, (axis, size)].ipc
                              / results[name, (axis, base)].ipc)
                       for size in sizes}
                for name in names}

    return relative("rob", rob_sizes, 128), relative("lvaq", lvaq_sizes, 64)


def run_rob(scale: float = DEFAULT_SCALE,
            programs: Optional[Sequence[str]] = None,
            sizes: Sequence[int] = ROB_SIZES) -> Dict[str, Dict[int, float]]:
    """IPC relative to the ROB=128 base, per ROB size."""
    return run(scale, programs, rob_sizes=sizes, lvaq_sizes=())[0]


def run_lvaq(scale: float = DEFAULT_SCALE,
             programs: Optional[Sequence[str]] = None,
             sizes: Sequence[int] = LVAQ_SIZES) -> Dict[str, Dict[int, float]]:
    """IPC relative to the LVAQ=64 base, per LVAQ size."""
    return run(scale, programs, rob_sizes=(), lvaq_sizes=sizes)[1]


def render(rob_rows: Dict[str, Dict[int, float]],
           lvaq_rows: Dict[str, Dict[int, float]]) -> str:
    parts = []
    rob_sizes = sorted(next(iter(rob_rows.values())))
    table = Table(["program"] + [f"ROB={s}" for s in rob_sizes],
                  precision=3,
                  title="Ablation: ROB size (relative to ROB=128, (3+2))")
    for name, row in rob_rows.items():
        table.add_row(name, *[row[s] for s in rob_sizes])
    table.add_row("geomean", *[
        geometric_mean(row[s] for row in rob_rows.values())
        for s in rob_sizes
    ])
    parts.append(table.render())

    lvaq_sizes = sorted(next(iter(lvaq_rows.values())))
    table = Table(["program"] + [f"LVAQ={s}" for s in lvaq_sizes],
                  precision=3,
                  title="Ablation: LVAQ size (relative to LVAQ=64, (3+2))")
    for name, row in lvaq_rows.items():
        table.add_row(name, *[row[s] for s in lvaq_sizes])
    table.add_row("geomean", *[
        geometric_mean(row[s] for row in lvaq_rows.values())
        for s in lvaq_sizes
    ])
    parts.append(table.render())
    return "\n\n".join(parts)


def main() -> None:
    print(render(*run()))


if __name__ == "__main__":
    main()
