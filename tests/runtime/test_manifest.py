"""Manifest writes: concurrent writers of one path never collide; live
progress counts restart with each batch."""

from __future__ import annotations

import io
import json
import os
import threading

import pytest

from repro.runtime.engine import EngineReport, JobOutcome
from repro.runtime.job import SimJob
from repro.runtime.manifest import ProgressPrinter, RunManifest
from repro.runtime.sweep import SweepManifest, SweepSpec

WRITES = 400


def _hammer(write, path: str) -> None:
    """Two threads write *path* WRITES times each; no write may raise."""
    errors = []

    def loop():
        try:
            for _ in range(WRITES):
                write()
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=loop) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    with open(path) as handle:
        json.load(handle)
    # No temp file survives: the manifest is the directory's only entry.
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


def test_run_manifest_concurrent_writes(tmp_path):
    path = str(tmp_path / "run_manifest.json")
    manifest = RunManifest(EngineReport({}, 0.0, 0, 1), salt="s",
                           scale=0.1, experiments=["fig9"])
    _hammer(lambda: manifest.write(path), path)


def test_sweep_manifest_concurrent_writes(tmp_path):
    path = str(tmp_path / "sweep.json")
    manifest = SweepManifest(path, SweepSpec(["mini.qsort"]))
    manifest.record("k", {"cycles": 1})
    _hammer(lambda: manifest.write(["k"]), path)


def test_failed_manifest_write_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "run_manifest.json")
    manifest = RunManifest(EngineReport({}, 0.0, 0, 1), salt="s",
                           scale=0.1)
    manifest.cache_stats = {"unserializable": object()}
    with pytest.raises(TypeError):
        manifest.write(path)
    assert os.listdir(str(tmp_path)) == []


def test_progress_cached_count_restarts_per_batch(base_config):
    """One printer serves every batch of a run; each batch's final line
    counts only that batch's cache hits."""
    stream = io.StringIO()
    progress = ProgressPrinter(stream=stream)
    for total in (3, 2):
        for done in range(1, total + 1):
            job = SimJob(f"w{done}", base_config)
            progress("cached", JobOutcome(job, "cached", worker="cache"),
                     done, total)
    lines = stream.getvalue().splitlines()
    assert lines[-1].startswith("[runtime] 2/2 done (2 cached)")
