"""The benchmark's three workloads, as rounds of timed points.

A workload builds one fixed plan from the seed: which programs, in which
order, which configuration each program sees first, which programs share
a mix, and which served points are store hits.  A run repeats that plan
in whole rounds until the measured time reaches ``--seconds``, so every
round has the same mix of point populations and the percentiles do not
depend on how many rounds fit.

Each point calls the layers through their modules' attributes (for
example ``replay.replay_fast``, not a name imported from it), so the
traced run's wrappers see the calls.  A point returns what it produced;
its check runs outside the timed span and compares against the committed
expectations of :mod:`gate`.
"""

from __future__ import annotations

import importlib
import os
import random
import shutil
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.lang
from repro.core import multicore
from repro.core.processor import Processor
from repro.experiments.common import trace_for
from repro.perf.golden import GOLDEN_CONFIGS, golden_config
from repro.runtime.engine import run_sim_jobs
from repro.runtime.registry import decode_job
from repro.runtime.service import ServiceClient, start_service
from repro.trace import format as trace_format
from repro.trace import predecode
from repro.trace.mix import MixResult
from repro.vm.machine import Machine
from repro.workloads import builder
from repro.workloads.minic import MINIC_PROGRAMS
from repro.workloads.spec import ALL_PROGRAMS

import gate

# The package re-exports a function named ``replay`` over the module.
replay = importlib.import_module("repro.trace.replay")

NOTATIONS = tuple(name for name, _ in GOLDEN_CONFIGS)


class Mismatch(Exception):
    """A delivered point that differs from its expectation."""


class Point:
    """One design point: ``run`` is timed, ``check`` is not.

    ``check(outcome)`` raises :class:`Mismatch` or returns the number of
    instructions the timing kernel simulated for the point.
    """

    __slots__ = ("label", "kind", "run", "check")

    def __init__(self, label: str, kind: str, run: Callable[[], Any],
                 check: Callable[[Any], int]):
        self.label = label
        self.kind = kind
        self.run = run
        self.check = check


def _expect(label: str, what: str, got: str, want: Optional[str]) -> None:
    if got != want:
        raise Mismatch(f"{label}: {what} {got[:12]} != expected "
                       f"{(want or 'none')[:12]}")


def _warm_kernels(notations) -> None:
    """Compile the specialized kernel of each configuration once.

    A sweep process keeps its kernels for its whole life, so their
    compile is set-up, not per-point cost.
    """
    insts = builder.build_trace_uncached(ALL_PROGRAMS[0], 500, 1).insts
    for notation in notations:
        Processor(golden_config(notation)).run(insts, "warm-up")


class SynthReplay:
    """Cold capture-then-replay sweep over the synthetic programs.

    Per program: generate the trace, capture it (trace file plus
    predecoded sidecar), replay it under every golden configuration; after
    every second program, one two-program mix at ``2+2:opt``.  The first
    replay of a program is its cold point (it pays generation, capture and
    sidecar decode); the other five are warm.  Each configuration is the
    cold one for exactly two programs per round.
    """

    name = "synth_replay"

    def __init__(self, seed: int, work: str, expected: Dict[str, Any],
                 small: bool = False):
        rng = random.Random(f"{self.name}/{seed}")
        programs = rng.sample(ALL_PROGRAMS, len(ALL_PROGRAMS))
        notations = rng.sample(NOTATIONS, len(NOTATIONS))
        offset = rng.randrange(len(notations))
        if small:
            programs = programs[:2]
        self.plan: List[Tuple] = []
        for i, program in enumerate(programs):
            k = (offset + i) % len(notations)
            order = notations[k:] + notations[:k]
            self.plan.append(("solo", program, order[:2] if small else order))
            if i % 2:
                self.plan.append(("mix", programs[i - 1], program))
        self.work = work
        self.synthetic = expected["synthetic"]["programs"]
        self.pairs = expected["mix"]["pairs"]
        self.configs = {n: golden_config(n) for n in NOTATIONS}
        self.mix_config = golden_config(gate.MIX_CONFIG)
        self._directory = ""

    def init(self) -> None:
        _warm_kernels(NOTATIONS)

    def fixture(self) -> List[Point]:
        """A fresh capture directory and a cold materialization memo."""
        self._directory = directory = os.path.join(self.work, "synth")
        os.makedirs(directory)
        predecode.clear_materialized()
        points: List[Point] = []
        for step in self.plan:
            if step[0] == "mix":
                points.append(self._mix(directory, step[1], step[2]))
                continue
            _, program, order = step
            for i, notation in enumerate(order):
                points.append(self._solo(directory, program, notation,
                                         cold=(i == 0)))
        return points

    def teardown(self) -> None:
        shutil.rmtree(self._directory, ignore_errors=True)

    @staticmethod
    def _paths(directory: str, program: str) -> Tuple[str, str]:
        stem = os.path.join(directory, program)
        return stem + ".trace", stem + ".pdt"

    def _solo(self, directory: str, program: str, notation: str,
              cold: bool) -> Point:
        trace_path, sidecar = self._paths(directory, program)
        config = self.configs[notation]
        expect = self.synthetic[program]
        label = f"{program} {notation}"

        def capture_and_replay():
            trace = builder.build_trace_uncached(
                program, gate.SYNTH_LENGTH, gate.GEN_SEED)
            trace_format.write_trace(trace, trace_path)
            with open(trace_path, "rb") as handle:
                data = handle.read()
            predecode.write_predecoded(
                predecode.predecode_trace(data, origin=trace_path), sidecar)
            return replay.replay_fast(trace_path, config, program), data

        def replay_warm():
            return replay.replay_fast(trace_path, config, program), None

        def check(outcome) -> int:
            result, data = outcome
            if data is not None:
                _expect(label, "trace", gate.bytes_digest(data),
                        expect["trace_sha256"])
            _expect(label, "result", gate.result_digest(result),
                    expect["results"][notation])
            return result.instructions

        if cold:
            return Point(label, "cold", capture_and_replay, check)
        return Point(label, "warm", replay_warm, check)

    def _mix(self, directory: str, first: str, second: str) -> Point:
        label = gate.pair_name(first, second)
        paths = [self._paths(directory, name)[0] for name in (first, second)]
        config = self.mix_config

        def run():
            streams = [(name, replay.replay_insts(path)[0])
                       for name, path in zip((first, second), paths)]
            return MixResult(config.notation(),
                             multicore.run_mix(streams, config))

        def check(result) -> int:
            _expect(label, "mix", gate.mix_digest(result.programs),
                    self.pairs.get(label))
            return result.instructions

        return Point(label, "mix", run, check)


class MinicExec:
    """Execution-driven mini-C: compile, run on the VM, simulate.

    Every round runs each of the 8 programs at ``-O0`` and ``-O2`` once,
    in a seeded order, under a fixed VM instruction budget.
    """

    name = "minic_exec"

    def __init__(self, seed: int, work: str, expected: Dict[str, Any],
                 small: bool = False):
        rng = random.Random(f"{self.name}/{seed}")
        variants = [(program, level) for program in MINIC_PROGRAMS
                    for level in gate.OPT_LEVELS]
        self.plan = rng.sample(variants, len(variants))
        if small:
            self.plan = self.plan[:2]
        self.expected = expected["minic"]["variants"]
        self.config = golden_config(gate.MINIC_CONFIG)

    def init(self) -> None:
        _warm_kernels([gate.MINIC_CONFIG])

    def fixture(self) -> List[Point]:
        return [self._point(program, level)
                for program, level in self.plan]

    def teardown(self) -> None:
        pass

    def _point(self, program: str, level: int) -> Point:
        variant = gate.minic_variant(program, level)
        source = MINIC_PROGRAMS[program][0]
        expect = self.expected[variant]
        config = self.config

        def run():
            options = repro.lang.CompilerOptions(source_name=variant,
                                                 opt_level=level)
            image = repro.lang.compile_source(source, options)
            vm = Machine(image, trace=True)
            vm.run(max_instructions=gate.MINIC_BUDGET)
            trace = vm.trace
            trace.name = variant
            return Processor(config).run(trace.insts, variant), trace

        def check(outcome) -> int:
            result, trace = outcome
            _expect(variant, "trace",
                    gate.bytes_digest(trace_format.encode_trace(trace)),
                    expect["trace_sha256"])
            _expect(variant, "result", gate.result_digest(result),
                    expect["result"])
            return result.instructions

        return Point(variant, "exec", run, check)


class ServedSweep:
    """A resumed sweep through the job service, one point at a time.

    Every round starts afresh: a new store pre-filled by a direct run
    with two of every three points, a freshly started service on it, and
    one client that submits each point, follows its progress stream, and
    fetches the JSON result.  Each program has two misses per round and
    each configuration four, so the miss population is the same for every
    seed.  All keys of a round are distinct, so every hit is a store read.
    """

    name = "served_sweep"

    def __init__(self, seed: int, work: str, expected: Dict[str, Any],
                 small: bool = False):
        rng = random.Random(f"{self.name}/{seed}")
        programs = rng.sample(ALL_PROGRAMS, len(ALL_PROGRAMS))
        notations = rng.sample(NOTATIONS, len(NOTATIONS))
        offset = rng.randrange(len(notations))
        if small:
            programs = programs[:2]
        points = []
        for i, program in enumerate(programs):
            misses = {notations[(offset + 2 * i + j) % len(notations)]
                      for j in range(2)}
            for notation in notations:
                points.append((program, notation, notation not in misses))
        self.plan = rng.sample(points, len(points))
        self.programs = programs
        self.work = work
        self.synthetic = expected["synthetic"]["programs"]
        self._handle = None
        self._store: Optional[str] = None

    def init(self) -> None:
        """Warm the trace memo (checking every trace) and the kernels."""
        # The service listens on loopback; no proxy from the environment
        # may carry the client's requests.
        for name in ("no_proxy", "NO_PROXY"):
            os.environ[name] = ",".join(
                filter(None, (os.environ.get(name), "127.0.0.1")))
        for program in self.programs:
            trace = trace_for(program, gate.SERVED_SCALE, gate.GEN_SEED)
            _expect(program, "trace",
                    gate.bytes_digest(trace_format.encode_trace(trace)),
                    self.synthetic[program]["trace_sha256"])
        _warm_kernels(NOTATIONS)

    @staticmethod
    def _payload(program: str, notation: str) -> Dict[str, Any]:
        return {"kind": "sim", "workload": program, "config": notation,
                "scale": gate.SERVED_SCALE, "seed": gate.GEN_SEED}

    def fixture(self) -> List[Point]:
        """Pre-fill a fresh store with the hits; start the service on it."""
        self._store = os.path.join(self.work, "served")
        hits = [decode_job(self._payload(program, notation))
                for program, notation, hit in self.plan if hit]
        run_sim_jobs(hits, engine_jobs=1, cache_dir=self._store)
        self._handle = start_service(jobs=1, cache_dir=self._store)
        client = ServiceClient(self._handle.url)
        return [self._point(client, program, notation, hit)
                for program, notation, hit in self.plan]

    def teardown(self) -> None:
        if self._handle is not None:
            self._handle.stop()
            self._handle = None
        if self._store is not None:
            shutil.rmtree(self._store, ignore_errors=True)
            self._store = None

    def _point(self, client: ServiceClient, program: str, notation: str,
               hit: bool) -> Point:
        payload = self._payload(program, notation)
        label = f"{program} {notation}"
        want = self.synthetic[program]["results"][notation]

        def run():
            reply = client.submit([payload])
            events = list(client.stream(reply["batch"]))
            return events, client.result(reply["keys"][0])

        def check(outcome) -> int:
            events, reply = outcome
            last = events[-1] if events else {}
            if last.get("event") != "batch-done":
                raise Mismatch(f"{label}: stream ended with {last!r}")
            summary = last["summary"]
            if (summary["cached"], summary["ran"]) != (
                    (1, 0) if hit else (0, 1)):
                raise Mismatch(f"{label}: expected a store "
                               f"{'hit' if hit else 'miss'}, got {summary}")
            result = reply["result"]
            _expect(label, "result", gate.payload_digest(result), want)
            return 0 if hit else result["instructions"]

        return Point(label, "hit" if hit else "miss", run, check)


WORKLOADS = {cls.name: cls for cls in (SynthReplay, MinicExec, ServedSweep)}
