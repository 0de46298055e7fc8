"""Host-speed probe: a fixed slice of interpreter work timed between points.

The machines this benchmark runs on share cores with other tenants, and
the speed of a pure-Python loop there swings by a quarter from one second
to the next and by a third from one minute to the next.  Every simulator
layer is interpreter-bound and slows down with it.  So the harness times
this probe between points and scales each point's latency by
``NOMINAL_PROBE_S`` over the mean of the probes just before and just
after it; set-up time is scaled by the run's overall ratio.  Reported
host times read as on a host where the probe takes ``NOMINAL_PROBE_S``.

The probe is the benchmark's own code and calls nothing in ``src``, so a
change to the simulator cannot move it.  It allocates no container per
iteration, so heap size and garbage collection do not move it either.
"""

from __future__ import annotations

from time import perf_counter

#: Probe time on the reference host (the median over a quiet minute on
#: a 2-vCPU x86-64 VM at 2.1 GHz, Python 3.11).
NOMINAL_PROBE_S = 0.0029

_ITERATIONS = 20_000


class _Cell:
    __slots__ = ("value",)


def _work(iterations: int) -> int:
    cell = _Cell()
    cell.value = 0
    table = [0] * 64
    lookup = {i: i for i in range(64)}
    for i in range(iterations):
        j = i & 63
        cell.value = (cell.value + table[j] + lookup.get(j, 0)) & 0xFFFF
        table[j] = cell.value
    return cell.value


def probe() -> float:
    """Seconds this host takes for the fixed probe right now."""
    started = perf_counter()
    _work(_ITERATIONS)
    return perf_counter() - started
