"""Replay must be bit-identical to execution-driven simulation."""

from __future__ import annotations

from repro.core.processor import Processor
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.trace.format import decode_trace, encode_trace, write_trace
from repro.trace.replay import check_replay_equivalence, replay_fast


def test_replay_matches_execution_on_golden_matrix(small_li_trace):
    """Every golden config: same cycles, instructions, and counters."""
    replayed = decode_trace(encode_trace(small_li_trace))
    for name, _kwargs in GOLDEN_CONFIGS:
        config = golden_config(name)
        expected = Processor(config).run(small_li_trace.insts, "130.li")
        actual = replay_fast(replayed, config, workload="130.li")
        assert diff_results("130.li", name, expected, actual) == []


def test_replay_from_file(small_vortex_trace, tmp_path, decoupled_config):
    path = str(tmp_path / "v.trace")
    write_trace(small_vortex_trace, path)
    expected = Processor(decoupled_config).run(
        small_vortex_trace.insts, "147.vortex")
    actual = replay_fast(path, decoupled_config)
    assert actual.workload_name == "147.vortex"
    assert diff_results("147.vortex", "2+2:opt", expected, actual) == []


def test_replay_with_gshare_frontend(small_li_trace, decoupled_config):
    """Gate lists are recomputed from the committed stream, so replay
    stays bit-identical even under the non-default frontend."""
    decoupled_config.frontend.policy = "gshare"
    replayed = decode_trace(encode_trace(small_li_trace))
    expected = Processor(decoupled_config).run(small_li_trace.insts, "li")
    actual = Processor(decoupled_config).run(replayed.insts, "li")
    assert diff_results("li", "2+2:opt+gshare", expected, actual) == []


def test_equivalence_sweep_is_clean():
    """The fuzz-adjacent oracle entry point: full golden matrix, no
    mismatches, on a short stream."""
    assert check_replay_equivalence(["129.compress"], length=8_000) == []
