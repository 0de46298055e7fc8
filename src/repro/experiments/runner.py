"""Command-line entry point: ``repro-experiments <experiment> [...]``.

``repro-experiments all`` regenerates every table and figure (the full
evaluation of the paper); one or more individual names run a subset.

Each experiment sends its simulation grid to one shared runtime session
as a single batch (:func:`repro.experiments.common.run_jobs`): shared
configurations are deduplicated, the misses run on a worker pool
(``--jobs N``) whose warm workers persist across experiments, and every
result goes through the persistent store (``--cache-dir``).  Simulation
is a pure function of its job, so the output is byte-identical to a
sequential run.  At exit the runner writes the union of the batches to
``results/run_manifest.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List

from repro.experiments import (
    ablation_multiport,
    ablation_realism,
    ablation_window,
    common,
    disc_small_l1,
    fig2_memfreq,
    fig3_framesize,
    fig5_bandwidth,
    fig6_lvc_miss,
    fig7_ports,
    fig8_combining,
    fig9_optimized,
    fig10_latency,
    fig11_programs,
    mix_interference,
    opt_levels,
    table1_config,
    table2_workloads,
    table3_forwarding,
)
from repro.runtime.engine import EngineReport
from repro.runtime.manifest import ProgressPrinter, RunManifest
from repro.runtime.store import default_cache_dir
from repro.stats.report import format_duration

EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "table1": table1_config.main,
    "table2": table2_workloads.main,
    "table3": table3_forwarding.main,
    "fig2": fig2_memfreq.main,
    "fig3": fig3_framesize.main,
    "fig5": fig5_bandwidth.main,
    "fig6": fig6_lvc_miss.main,
    "fig7": fig7_ports.main,
    "fig8": fig8_combining.main,
    "fig9": fig9_optimized.main,
    "fig10": fig10_latency.main,
    "fig11": fig11_programs.main,
    "ablation-multiport": ablation_multiport.main,
    "ablation-realism": ablation_realism.main,
    "ablation-window": ablation_window.main,
    "disc-small-l1": disc_small_l1.main,
    "mix-interference": mix_interference.main,
    "opt-levels": opt_levels.main,
}

DEFAULT_MANIFEST = os.path.join("results", "run_manifest.json")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="experiment",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true",
                        help="list the available experiments and exit")
    parser.add_argument("--keep-going", action="store_true",
                        help="continue past a failing experiment; exit "
                             "nonzero listing every failure at the end")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the simulations "
                             "(default 1 = in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent result-cache directory "
                             f"(default {default_cache_dir()})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job simulation timeout")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="retries for failed/timed-out jobs (default 1)")
    parser.add_argument("--manifest", default=DEFAULT_MANIFEST,
                        metavar="PATH",
                        help=f"run-manifest path (default {DEFAULT_MANIFEST};"
                             " empty string disables)")
    return parser


def _expand(names: List[str]) -> List[str]:
    if "all" in names:
        return sorted(EXPERIMENTS)
    out: List[str] = []
    for name in names:
        if name not in out:
            out.append(name)
    return out


def _write_manifest(args, names: List[str], session,
                    batches: List[EngineReport]) -> None:
    """Summarise the union of the run's batches on stderr and write it."""
    outcomes = {}
    for report in batches:
        outcomes.update(report.outcomes)
    report = EngineReport(outcomes, sum(r.elapsed for r in batches),
                          sum(r.duplicates for r in batches), session.jobs)
    manifest = RunManifest(
        report, salt=session.salt, scale=common.DEFAULT_SCALE,
        experiments=names,
        cache_stats=(session.cache.stats()
                     if session.cache is not None else None),
    )
    print(manifest.summary(), file=sys.stderr)
    if args.manifest:
        manifest.write(args.manifest)
        print(f"[runtime] manifest: {args.manifest}", file=sys.stderr)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if not args.experiments:
        parser.error("no experiments given (try --list or 'all')")
    unknown = [n for n in args.experiments
               if n != "all" and n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)} "
                     "(try --list)")
    names = _expand(args.experiments)

    cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    first_batch = len(common.REPORTS)
    with common.configure_runtime(
        jobs=args.jobs, cache_dir=cache_dir, no_cache=args.no_cache,
        timeout=args.timeout, retries=args.retries,
        progress=ProgressPrinter(), keep_pool=True,
    ) as session:
        failed: List[str] = []
        for name in names:
            started = time.time()
            try:
                EXPERIMENTS[name]()
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                failed.append(name)
                print(f"[{name} FAILED: {type(exc).__name__}: {exc}]",
                      file=sys.stderr)
                if not args.keep_going:
                    break
            else:
                print(f"[{name} took "
                      f"{format_duration(time.time() - started)}]\n")
    batches = common.REPORTS[first_batch:]
    if batches:
        _write_manifest(args, names, session, batches)
    if failed:
        print(f"repro-experiments: {len(failed)} experiment(s) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
