"""Each timing experiment resolves its whole grid as one engine batch,
and the in-process memo makes repeated cells free."""

from __future__ import annotations

import pytest

from repro.experiments import (
    common,
    fig7_ports,
    fig9_optimized,
    fig10_latency,
    fig11_programs,
    opt_levels,
)
from repro.runtime.engine import RuntimeSession
from repro.runtime.job import SimJob

SCALE = 0.01


@pytest.fixture
def batches(monkeypatch):
    """Record the jobs of every batch the experiments send, hermetically."""
    common.clear_result_cache()
    session = RuntimeSession(no_cache=True)
    sent = []
    real_run = session.run

    def run(jobs):
        jobs = list(jobs)
        sent.append(jobs)
        return real_run(jobs)

    monkeypatch.setattr(session, "run", run)
    monkeypatch.setattr(common, "_SESSION", session)
    yield sent
    common.clear_result_cache()


def test_fig10_is_one_batch_then_memo_hits(batches):
    programs = ("130.li", "129.compress")
    rows = fig10_latency.run(scale=SCALE, programs=programs)
    assert len(batches) == 1
    cells = {(job.workload, job.config.notation(),
              job.config.mem.l1_hit_latency) for job in batches[0]}
    assert len(batches[0]) == len(cells) == 8
    assert {workload for workload, _n, _l in cells} == set(programs)
    assert set(rows) == set(programs)
    for row in rows.values():
        assert row["(2+0)"] == 1.0

    assert fig10_latency.run(scale=SCALE, programs=programs) == rows
    assert len(batches) == 1


def test_shared_baseline_simulates_once(batches):
    programs = ("130.li",)
    fig7_ports.run(scale=SCALE, programs=programs)
    fig9_optimized.run(scale=SCALE, programs=programs)
    fig10_latency.run(scale=SCALE, programs=programs)
    fig11_programs.run(scale=SCALE, programs=programs)
    # fig11's grid is a corner of fig9's, so the memo answers all of it.
    assert len(batches) == 3
    baseline = SimJob("130.li", common.nm_config(2, 0), scale=SCALE).key
    # Within fig7's batch the (2+0) cell and the baseline are one job,
    # which the engine dedupes; no later figure sends it again.
    assert [baseline in {job.key for job in batch}
            for batch in batches] == [True, False, False]


def test_opt_levels_submits_both_levels(batches):
    opt_levels.run(scale=SCALE, programs=("mini.linkedlist",))
    [batch] = batches
    assert {job.workload for job in batch} == {
        "mini.linkedlist@O0", "mini.linkedlist@O2"}
    assert len(batch) == len(opt_levels.LEVELS) * len(opt_levels.configs())
