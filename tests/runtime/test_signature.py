"""Cache-key soundness: full field coverage, cross-process stability,
and code-salt behaviour."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.config import MachineConfig
from repro.runtime.job import SimJob
from repro.runtime.signature import (
    code_salt,
    config_signature,
    describe_config,
)

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")


def _fresh_config() -> MachineConfig:
    return MachineConfig.baseline(l1_ports=2, lvc_ports=2,
                                  fast_forwarding=True, combining=2)


def _perturbations():
    """(section, field, mutator) for every scalar config field."""
    probe = _fresh_config()
    sections = {"": probe, "mem": probe.mem, "decouple": probe.decouple,
                "frontend": probe.frontend}
    for section, obj in sections.items():
        for name, value in sorted(vars(obj).items()):
            if isinstance(value, bool):
                yield section, name, (lambda v: not v)
            elif isinstance(value, int):
                yield section, name, (lambda v: v + 1)
            elif isinstance(value, float):
                yield section, name, (lambda v: v + 1.0)
            elif isinstance(value, str):
                yield section, name, (lambda v: v + "x")
            else:
                # Only the nested config objects themselves may be
                # non-scalar; anything else would dodge the signature.
                assert section == "" and name in (
                    "mem", "decouple", "frontend"), (
                    f"unhashable config field {section}.{name}")


def test_every_config_field_changes_the_key():
    """A new or edited field can never silently alias two configs."""
    base_key = config_signature(_fresh_config())
    checked = 0
    for section, name, mutate in _perturbations():
        config = _fresh_config()
        target = getattr(config, section) if section else config
        setattr(target, name, mutate(getattr(target, name)))
        assert config_signature(config) != base_key, (
            f"field {section or 'machine'}.{name} is not covered")
        checked += 1
    # The three config classes carry a substantial number of knobs; make
    # sure the walk actually saw them (guards against vars() going empty).
    assert checked >= 25


def test_signature_matches_class_growth():
    """describe_config() reflects dynamically added fields too."""
    config = _fresh_config()
    desc = describe_config(config)
    assert "issue_width" in desc
    assert desc["mem"]["l1_ports"] == 2
    config.mem.brand_new_knob = 7
    assert describe_config(config)["mem"]["brand_new_knob"] == 7
    assert config_signature(config) != config_signature(_fresh_config())


def _job_key_script() -> str:
    return (
        "from repro.core.config import MachineConfig\n"
        "from repro.runtime.job import SimJob\n"
        "job = SimJob('130.li', MachineConfig.baseline(l1_ports=3,"
        " lvc_ports=2, fast_forwarding=True), scale=0.25, seed=3)\n"
        "print(job.key)\n"
    )


@pytest.mark.parametrize("hashseed", ["0", "1", "31337"])
def test_job_key_stable_across_processes(hashseed):
    """The disk cache is shared across runs: keys must not depend on the
    interpreter's per-process string-hash salt."""
    local = SimJob(
        "130.li",
        MachineConfig.baseline(l1_ports=3, lvc_ports=2,
                               fast_forwarding=True),
        scale=0.25, seed=3,
    ).key
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", _job_key_script()],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == local


def test_source_text_enters_the_key():
    config = MachineConfig.baseline()
    a = SimJob("prog.mc", config, source_text="int main() { return 1; }")
    b = SimJob("prog.mc", config, source_text="int main() { return 2; }")
    assert a.key != b.key


def test_code_salt_override_and_stability(monkeypatch):
    computed = code_salt()
    assert computed == code_salt()  # memoised, stable
    monkeypatch.setenv("REPRO_CACHE_SALT", "pinned-salt")
    assert code_salt() == "pinned-salt"
    monkeypatch.delenv("REPRO_CACHE_SALT")
    assert code_salt() == computed


def test_ssa_mid_end_sources_are_salted():
    """Every module the -O pipeline runs must enter both the result-cache
    salt and the trace-capture salt: a pass edit that changes generated
    code has to invalidate cached sims *and* captured traces."""
    import repro.runtime.signature as sig

    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(sig.__file__)))
    mid_end = {os.path.join("lang", name) for name in (
        "ssa.py", "passes.py", "pipeline.py", "optimizer.py",
        "frontend.py", "codegen.py")}
    for sources in (sig._SALT_SOURCES, sig.TRACE_SALT_SOURCES):
        walked = set()
        for entry in sources:
            for path in sig._python_files(
                    os.path.join(package_root, entry)):
                walked.add(os.path.relpath(path, package_root))
        missing = mid_end - walked
        assert not missing, f"unsalted mid-end sources: {sorted(missing)}"
