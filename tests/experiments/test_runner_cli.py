"""The repro-experiments CLI: --list, multiple names, --keep-going,
exit codes, store + manifest plumbing."""

from __future__ import annotations

import json

import pytest

from repro.experiments import common, runner
from repro.runtime.job import SimJob


@pytest.fixture(autouse=True)
def _isolate_runtime(monkeypatch):
    """Keep each CLI invocation's session out of the shared module state."""
    monkeypatch.setattr(common, "_SESSION", None)
    yield
    common.clear_result_cache()
    common._SESSION = None


def test_list_prints_every_experiment(capsys):
    assert runner.main(["--list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == sorted(runner.EXPERIMENTS)


def test_no_experiments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        runner.main([])
    assert exc.value.code == 2


def test_unknown_experiment_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        runner.main(["not-a-figure"])
    assert exc.value.code == 2


def _fake_experiments(monkeypatch, log):
    def ok():
        log.append("ok")
        print("ok output")

    def boom():
        log.append("boom")
        raise RuntimeError("injected failure")

    monkeypatch.setattr(runner, "EXPERIMENTS", {"ok": ok, "boom": boom})


def test_failure_aborts_without_keep_going(monkeypatch, capsys):
    log = []
    _fake_experiments(monkeypatch, log)
    rc = runner.main(["boom", "ok", "--no-cache"])
    captured = capsys.readouterr()
    assert rc == 1
    assert log == ["boom"]  # "ok" never ran
    assert "boom" in captured.err
    assert "injected failure" in captured.err


def test_keep_going_runs_the_rest_and_reports(monkeypatch, capsys):
    log = []
    _fake_experiments(monkeypatch, log)
    rc = runner.main(["boom", "ok", "--keep-going", "--no-cache"])
    captured = capsys.readouterr()
    assert rc == 1
    assert log == ["boom", "ok"]
    assert "ok output" in captured.out
    assert "1 experiment(s) failed: boom" in captured.err


def test_multiple_names_run_in_order(monkeypatch, capsys):
    log = []
    _fake_experiments(monkeypatch, log)
    rc = runner.main(["ok", "ok", "--no-cache"])
    assert rc == 0
    assert log == ["ok"]  # duplicates collapse
    assert "[ok took" in capsys.readouterr().out


def test_prewarm_writes_manifest_and_seeds_results(monkeypatch, tmp_path,
                                                   capsys):
    """An experiment's batch lands in the manifest and the store; a warm
    rerun is all store hits."""
    ran = []

    def fake_main():
        results = common.run_jobs(
            {"li": SimJob("130.li", common.nm_config(2, 0), scale=0.12)})
        ran.append(results["li"].cycles)

    monkeypatch.setattr(runner, "EXPERIMENTS", {"fake": fake_main})
    manifest_path = tmp_path / "manifest.json"
    rc = runner.main(["fake", "--jobs", "1",
                      "--cache-dir", str(tmp_path / "cache"),
                      "--manifest", str(manifest_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert ran and ran[0] > 0
    assert "[runtime]" in captured.err
    payload = json.loads(manifest_path.read_text())
    assert payload["jobs_total"] == 1
    assert payload["jobs_ran"] == 1
    assert payload["jobs"][0]["workload"] == "130.li"
    assert payload["jobs"][0]["status"] == "ran"

    # Second invocation: warm cache, manifest reports the hit rate.
    monkeypatch.setattr(common, "_SESSION", None)
    common.clear_result_cache()
    rc = runner.main(["fake", "--jobs", "1",
                      "--cache-dir", str(tmp_path / "cache"),
                      "--manifest", str(manifest_path)])
    assert rc == 0
    assert ran[1] == ran[0]
    payload = json.loads(manifest_path.read_text())
    assert payload["jobs_cached"] == 1
    assert payload["cache_hit_rate"] == 1.0


def _failing_experiments(monkeypatch, log):
    """``bad`` asks for a workload that does not exist; ``ok`` is fine."""
    def bad():
        log.append("bad")
        common.run_jobs(
            {"x": SimJob("no.such-program", common.nm_config(2, 0))})

    def ok():
        log.append("ok")

    monkeypatch.setattr(runner, "EXPERIMENTS", {"bad": bad, "ok": ok})


def test_failed_job_fails_its_experiment(monkeypatch, tmp_path, capsys):
    log = []
    _failing_experiments(monkeypatch, log)
    manifest_path = tmp_path / "manifest.json"
    rc = runner.main(["bad", "ok", "--keep-going", "--no-cache",
                      "--retries", "0", "--manifest", str(manifest_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert log == ["bad", "ok"]
    assert "[bad FAILED: SimulationError" in captured.err
    assert "no.such-program" in captured.err
    payload = json.loads(manifest_path.read_text())
    assert payload["jobs_failed"] == 1


def _mix_runner(monkeypatch):
    """mix-interference on one pair at the smallest trace length."""
    from repro.experiments import mix_interference

    monkeypatch.setattr(mix_interference, "MIX_PAIRS",
                        (("129.compress", "130.li"),))
    monkeypatch.setitem(
        runner.EXPERIMENTS, "mix-interference",
        lambda: print(mix_interference.render(
            mix_interference.run(scale=0.001))))


def test_mix_interference_batch_uses_the_runner_store(monkeypatch, tmp_path,
                                                      capsys):
    """The mixes ride in the experiment's batch: --cache-dir stores them,
    and the warm rerun's manifest lists them as cached."""
    _mix_runner(monkeypatch)
    manifest_path = tmp_path / "manifest.json"
    argv = ["mix-interference", "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest_path)]
    assert runner.main(argv) == 0
    cold = capsys.readouterr().out

    monkeypatch.setattr(common, "_SESSION", None)
    common.clear_result_cache()
    assert runner.main(argv) == 0
    assert capsys.readouterr().out.split("[mix-interference took")[0] == (
        cold.split("[mix-interference took")[0])
    payload = json.loads(manifest_path.read_text())
    assert payload["jobs_total"] == 6  # 4 solo runs + 2 mixes
    assert payload["jobs_cached"] == payload["jobs_total"]
    mixes = [job for job in payload["jobs"] if "+" in job["workload"]]
    assert [job["workload"] for job in mixes] == ["129.compress+130.li"] * 2


def test_mix_interference_no_cache_writes_nothing(monkeypatch, tmp_path):
    _mix_runner(monkeypatch)
    env_store = tmp_path / "env-store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(env_store))
    assert runner.main(["mix-interference", "--no-cache",
                        "--manifest", ""]) == 0
    assert not env_store.exists() or not any(env_store.iterdir())


def test_manifest_write_is_deterministic(tmp_path):
    """Same batch -> byte-identical manifest, regardless of the order the
    engine finished the jobs in (worker scheduling is not deterministic)."""
    from repro.runtime.engine import EngineReport, JobOutcome
    from repro.runtime.manifest import RunManifest

    def make_report(order):
        outcomes = {}
        for key in order:
            job = SimJob(key, common.nm_config(2, 0), scale=0.1)
            outcomes[f"k-{key}"] = JobOutcome(job, "cached", wall=0.0,
                                              attempts=1, worker="cache")
        return EngineReport(outcomes, elapsed=1.0, duplicates=0, workers=2)

    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    RunManifest(make_report(["130.li", "099.go"]), salt="s",
                scale=0.1, experiments=["fake"]).write(str(first))
    RunManifest(make_report(["099.go", "130.li"]), salt="s",
                scale=0.1, experiments=["fake"]).write(str(second))
    assert first.read_bytes() == second.read_bytes()

    payload = json.loads(first.read_text())
    assert "created_unix" not in payload
    assert [j["key"] for j in payload["jobs"]] == sorted(
        j["key"] for j in payload["jobs"])
