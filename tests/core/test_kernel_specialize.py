"""Specialized-kernel cache behaviour and bit-identity.

The specialized kernel (:mod:`repro.core.stages.specialize`) constant-
folds the bound MachineConfig into the composed source and caches the
compiled function per ``(code salt, machine description)``.  These
tests pin the cache contract — one compile per config, invalidation on
code-salt and config-schema changes — and the only property that makes
the whole scheme admissible: specialized output is bit-identical to
the portable kernel (:meth:`Processor._portable_kernel`, called
directly) across the golden workload×config matrix and the port and
frontend policies.
"""

from __future__ import annotations

import pytest

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.core.stages import specialize
from repro.core.stages.state import CoreState
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.workloads.builder import build_trace


@pytest.fixture(autouse=True)
def _cold_cache():
    specialize.clear_cache()
    yield
    specialize.clear_cache()


def _run(config, trace, name="130.li"):
    return Processor(config).run(trace.insts, name)


def _portable(config, insts, name):
    """The same run through the hand-written portable kernel."""
    processor = Processor(config)
    out = processor._portable_kernel(CoreState(processor, insts), insts)
    return processor._result(out, len(insts), name)


def test_same_config_compiles_once(small_li_trace):
    config = golden_config("2+2:opt")
    before = specialize.compile_count
    _run(config, small_li_trace)
    after_first = specialize.compile_count
    assert after_first == before + 1
    # Same machine description again: cache hit, no second compile —
    # a fresh Processor and a fresh config object must not matter.
    _run(golden_config("2+2:opt"), small_li_trace)
    assert specialize.compile_count == after_first


def test_distinct_configs_compile_separately(small_li_trace):
    before = specialize.compile_count
    _run(golden_config("2+0"), small_li_trace)
    _run(golden_config("4+0"), small_li_trace)
    assert specialize.compile_count == before + 2


def test_code_salt_change_misses_cache(small_li_trace, monkeypatch):
    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    before = specialize.compile_count
    # A different kernel code salt (edited stage source / fold rules)
    # must key a different cache entry.
    monkeypatch.setattr(specialize, "_SALT", "test-salt-mismatch")
    _run(config, small_li_trace)
    assert specialize.compile_count == before + 1


def test_config_schema_version_misses_cache(small_li_trace, monkeypatch):
    from repro.core import registry

    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    before = specialize.compile_count
    monkeypatch.setattr(registry, "CONFIG_SCHEMA_VERSION",
                        registry.CONFIG_SCHEMA_VERSION + 1)
    _run(config, small_li_trace)
    assert specialize.compile_count == before + 1


def test_cached_source_is_inspectable(small_li_trace):
    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    source = specialize.cached_source(config)
    assert source is not None
    assert source.startswith("# specialized kernel: (2+2)")
    # The folded constants are literals now, not config reads.
    assert '"width"' in source.splitlines()[0]


def test_emit_source_without_a_run():
    source = specialize.emit_source(golden_config("2+0"))
    assert "def _fused_run" in source
    # A 2+0 machine has no LVC: the dead decoupled arms are deleted.
    assert '"decoupled"' in source.splitlines()[0]


@pytest.mark.parametrize("notation", [name for name, _kw in GOLDEN_CONFIGS])
def test_specialized_matches_portable_on_golden_matrix(
        notation, small_li_trace):
    """cycles + instructions + full counter dict, per golden config."""
    specialized = _run(golden_config(notation), small_li_trace)
    portable = _portable(golden_config(notation), small_li_trace.insts,
                         "130.li")
    assert diff_results("130.li", notation, portable, specialized) == []


def test_specialized_matches_portable_second_workload(small_vortex_trace):
    specialized = _run(golden_config("2+2:opt"), small_vortex_trace,
                       "147.vortex")
    portable = _portable(golden_config("2+2:opt"),
                         small_vortex_trace.insts, "147.vortex")
    assert diff_results("147.vortex", "2+2:opt", portable,
                        specialized) == []


def _policy_config(ports=None, frontend=None, **decouple):
    config = MachineConfig.baseline()
    if ports:
        config.mem.l1_port_policy = ports
        config.mem.lvc_port_policy = ports
    if frontend:
        config.frontend.policy = frontend
    for key, value in decouple.items():
        setattr(config.decouple, key, value)
    return config


#: (id, workload, policy settings): contended ports, the gshare
#: frontend and a wider combining window, on 12k-instruction traces.
POLICY_CASES = [
    ("default", "099.go", {}),
    ("finite-ports", "099.go", dict(ports="finite")),
    ("gshare", "099.go", dict(frontend="gshare")),
    ("finite+gshare", "099.go", dict(ports="finite", frontend="gshare")),
    ("combining", "099.go", dict(fast_forwarding=True, combining=4)),
    ("finite+gshare-126.gcc", "126.gcc",
     dict(ports="finite", frontend="gshare")),
]


@pytest.mark.parametrize("workload,policy",
                         [case[1:] for case in POLICY_CASES],
                         ids=[case[0] for case in POLICY_CASES])
def test_specialized_matches_portable_on_policies(workload, policy):
    insts = build_trace(workload, 12000).insts
    specialized = Processor(_policy_config(**policy)).run(insts, workload)
    portable = _portable(_policy_config(**policy), insts, workload)
    assert diff_results(workload, "policy", portable, specialized) == []


def test_cli_emit_kernel(capsys):
    from repro.cli import main

    assert main(["perf", "--emit-kernel", "2+2:opt"]) == 0
    out = capsys.readouterr().out
    assert "# specialized kernel: (2+2)" in out
    assert "def _fused_run" in out
