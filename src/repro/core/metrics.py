"""Simulation results and derived metrics."""

from __future__ import annotations

from typing import Dict

from repro.stats.counters import CounterSet


class SimResult:
    """Everything a timing-simulation run measured."""

    def __init__(self, config_name: str, workload_name: str,
                 cycles: int, instructions: int, counters: CounterSet):
        self.config_name = config_name
        self.workload_name = workload_name
        self.cycles = cycles
        self.instructions = instructions
        self.counters = counters

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    # -- common derived rates -------------------------------------------------

    @property
    def l1_miss_rate(self) -> float:
        """L1 data-cache miss rate."""
        return self.counters.rate("l1.misses", "l1.accesses")

    @property
    def lvc_miss_rate(self) -> float:
        """LVC miss rate (0.0 when the config has no LVC)."""
        return self.counters.rate("lvc.misses", "lvc.accesses")

    @property
    def l2_traffic(self) -> int:
        """Transactions on the L1/L2 bus."""
        return self.counters.get("bus.transactions")

    @property
    def lvaq_forward_rate(self) -> float:
        """Fraction of LVAQ loads satisfied by (any) in-queue forwarding."""
        loads = self.counters.get("lvaq.loads")
        if not loads:
            return 0.0
        forwarded = (self.counters.get("lvaq.forwards")
                     + self.counters.get("lvaq.fast_forwards"))
        return forwarded / loads

    def summary(self) -> Dict[str, float]:
        """A compact dictionary for reports and benchmarks."""
        return {
            "config": self.config_name,
            "workload": self.workload_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "l1_miss_rate": self.l1_miss_rate,
            "lvc_miss_rate": self.lvc_miss_rate,
            "l2_traffic": self.l2_traffic,
        }

    def __repr__(self) -> str:
        return (
            f"SimResult({self.workload_name!r} on {self.config_name}, "
            f"IPC={self.ipc:.3f})"
        )
