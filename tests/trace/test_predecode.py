"""Pre-decoded sidecar: determinism, corruption handling, equivalence.

The sidecar (:mod:`repro.trace.predecode`) is a derived artifact, so
its whole contract is: deterministic bytes, loud failure on any defect,
and a materialized stream indistinguishable from decoding the raw
trace — on every golden-matrix configuration.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.core.processor import Processor
from repro.errors import TraceError
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.trace import predecode
from repro.trace.format import (
    STREAM_SECTIONS,
    TRACE,
    decode_container,
    decode_trace,
    encode_trace,
    write_trace,
)
from repro.trace.predecode import (
    MAGIC,
    decode_predecoded,
    encode_predecoded,
    materialized_insts,
    predecode_trace,
    read_predecoded,
    write_predecoded,
)
from repro.trace.replay import replay_fast, replay_insts

_FIELDS = ("fu", "dst", "srcs", "addr", "size", "local_hint", "is_local",
           "sp_based", "frame_id", "offset", "pc")


@pytest.fixture(autouse=True)
def _cold_memo():
    predecode.clear_materialized()
    yield
    predecode.clear_materialized()


@pytest.fixture(scope="module")
def li_blob(small_li_trace):
    return encode_trace(small_li_trace)


def _mutate_header(blob: bytes, drop=(), **changes) -> bytes:
    """Re-pack a sidecar blob with header fields dropped or overridden."""
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start:start + header_len])
    for field in drop:
        del header[field]
    header.update(changes)
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return (MAGIC + struct.pack("<I", len(raw)) + raw
            + blob[start + header_len:])


def test_round_trip_is_deterministic(li_blob):
    pdt = predecode_trace(li_blob)
    blob1 = encode_predecoded(pdt)
    blob2 = encode_predecoded(predecode_trace(li_blob))
    assert blob1 == blob2
    blob3 = encode_predecoded(decode_predecoded(blob1))
    assert blob1 == blob3


def test_sidecar_tables_are_the_trace_stream_sections(li_blob,
                                                     small_li_trace):
    """A sidecar holds exactly the raw trace's stream sections, byte for
    byte: same names, order, typecodes and contents."""
    pdt = predecode_trace(li_blob)
    assert pdt.n == len(small_li_trace.insts)
    assert list(pdt.tables) == [name for name, _ in STREAM_SECTIONS]
    assert [name for name, _ in predecode.SECTIONS] == [
        "fu", "dst", "nsrc", "srcs", "addr", "size", "flags", "frame",
        "offset", "pc"]
    _header, payload, by_name = decode_container(li_blob, TRACE, "<li>")
    for name, typecode in STREAM_SECTIONS:
        section = by_name[name]
        raw = payload[section["offset"]:section["offset"] + section["bytes"]]
        assert pdt.tables[name].typecode == typecode
        assert pdt.tables[name].tobytes() == raw.tobytes()


def test_materialize_matches_raw_decode(li_blob):
    raw = decode_trace(li_blob).insts
    got = materialized_insts(predecode_trace(li_blob))
    assert len(raw) == len(got)
    for a, b in zip(raw, got):
        for field in _FIELDS:
            assert getattr(a, field) == getattr(b, field)


def test_materialization_is_memoized(li_blob):
    pdt = predecode_trace(li_blob)
    first = materialized_insts(pdt)
    again = materialized_insts(decode_predecoded(encode_predecoded(pdt)))
    assert again is first
    assert predecode.materialized_cached(pdt.source_sha256) is first
    predecode.clear_materialized()
    assert predecode.materialized_cached(pdt.source_sha256) is None


def test_bad_magic_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    with pytest.raises(TraceError, match="bad magic"):
        decode_predecoded(b"NOTAPDT!" + blob[8:])


def test_truncation_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    with pytest.raises(TraceError, match="truncated"):
        decode_predecoded(blob[:6])
    # With verification on, the checksum catches the truncation; with it
    # off, the section bounds check still refuses the short payload.
    with pytest.raises(TraceError, match="checksum mismatch"):
        decode_predecoded(blob[:len(blob) // 2])
    with pytest.raises(TraceError, match="truncated"):
        decode_predecoded(blob[:len(blob) // 2], verify=False)


def test_payload_corruption_raises(li_blob):
    blob = bytearray(encode_predecoded(predecode_trace(li_blob)))
    blob[-10] ^= 0xFF
    with pytest.raises(TraceError, match="checksum mismatch"):
        decode_predecoded(bytes(blob))


def test_version_skew_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    skewed = _mutate_header(blob,
                            version=predecode.PREDECODE_VERSION + 1)
    with pytest.raises(TraceError, match="version"):
        decode_predecoded(skewed)


def test_missing_source_hash_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    with pytest.raises(TraceError, match="source_sha256"):
        decode_predecoded(_mutate_header(blob, source_sha256=""))


def test_corrupt_trace_refused_at_predecode(li_blob):
    broken = bytearray(li_blob)
    broken[-1] ^= 0xFF
    with pytest.raises(TraceError, match="checksum mismatch"):
        predecode_trace(bytes(broken))


def test_file_round_trip(li_blob, tmp_path):
    pdt = predecode_trace(li_blob)
    path = str(tmp_path / "li.pdt")
    write_predecoded(pdt, path)
    loaded = read_predecoded(path)
    assert loaded.source_sha256 == pdt.source_sha256
    assert loaded.tables["pc"] == pdt.tables["pc"]
    with pytest.raises(TraceError, match="cannot read"):
        read_predecoded(str(tmp_path / "absent.pdt"))


@pytest.mark.parametrize("notation", [name for name, _kw in GOLDEN_CONFIGS])
def test_sidecar_replay_matches_raw_replay(notation, small_li_trace,
                                           li_blob):
    """Golden matrix: replay from the sidecar == replay from the raw
    trace, cycles + instructions + full counter dict."""
    config = golden_config(notation)
    expected = Processor(config).run(
        decode_trace(li_blob).insts, "130.li")
    insts = materialized_insts(predecode_trace(li_blob))
    actual = Processor(golden_config(notation)).run(insts, "130.li")
    assert diff_results("130.li", notation, expected, actual) == []


def test_sidecar_replay_second_workload(small_vortex_trace):
    blob = encode_trace(small_vortex_trace)
    config = golden_config("2+2:opt")
    expected = Processor(config).run(decode_trace(blob).insts,
                                     "147.vortex")
    insts = materialized_insts(predecode_trace(blob))
    actual = Processor(golden_config("2+2:opt")).run(insts, "147.vortex")
    assert diff_results("147.vortex", "2+2:opt", expected, actual) == []


def _raw_result(path, config):
    with open(path, "rb") as handle:
        insts = decode_trace(handle.read(), origin=path).insts
    return Processor(config).run(insts, "130.li")


def test_replay_fast_from_file(small_li_trace, tmp_path,
                               decoupled_config):
    path = str(tmp_path / "li.trace")
    write_trace(small_li_trace, path)
    expected = _raw_result(path, decoupled_config)
    # No sidecar yet: derived in memory.
    actual = replay_fast(path, decoupled_config)
    assert diff_results("130.li", "2+2:opt", expected, actual) == []
    # With the sidecar on disk, and again from the warm memo.
    write_predecoded(predecode_trace(open(path, "rb").read()),
                     str(tmp_path / "li.pdt"))
    predecode.clear_materialized()
    actual = replay_fast(path, decoupled_config)
    assert diff_results("130.li", "2+2:opt", expected, actual) == []
    insts_a, _ = replay_insts(path)
    insts_b, _ = replay_insts(path)
    assert insts_a is insts_b


def _stale_source(blob: bytes) -> bytes:
    pdt = decode_predecoded(blob)
    pdt.source_sha256 = "f" * 64
    return encode_predecoded(pdt)


def _old_version(blob: bytes) -> bytes:
    return _mutate_header(blob, version=predecode.PREDECODE_VERSION - 1)


def _no_instructions(blob: bytes) -> bytes:
    return _mutate_header(blob, drop=("instructions",))


def _spoiled_replay(spoil, trace, tmp_path, config):
    """replay_fast with *spoil* applied to the sidecar, and the raw-decode
    result it must equal."""
    path = str(tmp_path / "li.trace")
    write_trace(trace, path)
    blob = encode_predecoded(predecode_trace(open(path, "rb").read()))
    (tmp_path / "li.pdt").write_bytes(spoil(blob))
    predecode.clear_materialized()
    return replay_fast(path, config), _raw_result(path, config)


def test_stale_sidecar_is_ignored(small_li_trace, tmp_path,
                                  decoupled_config):
    """A sidecar of another capture or of an older PREDECODE_VERSION is
    ignored: replay derives from the raw trace."""
    for spoil in (_stale_source, _old_version):
        actual, expected = _spoiled_replay(spoil, small_li_trace, tmp_path,
                                           decoupled_config)
        assert diff_results("130.li", "2+2:opt", expected, actual) == []


def test_malformed_sidecar_header_is_ignored(small_li_trace, tmp_path,
                                             decoupled_config):
    """A parseable sidecar header without ``instructions`` is refused
    with TraceError, so replay derives from the raw trace."""
    actual, expected = _spoiled_replay(_no_instructions, small_li_trace,
                                       tmp_path, decoupled_config)
    assert diff_results("130.li", "2+2:opt", expected, actual) == []


def test_store_derives_and_revalidates_sidecar(tmp_path):
    from repro.trace.capture import TraceJob, TraceStore, capture_trace

    job = TraceJob("mini.qsort", seed=3)
    path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert not cached
    store = TraceStore(str(tmp_path))
    sidecar = store.predecoded_path(job.key)
    assert os.path.exists(sidecar)
    good = open(sidecar, "rb").read()
    # A deleted sidecar is re-derived on the next cache hit.
    os.remove(sidecar)
    _path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert cached and open(sidecar, "rb").read() == good
    # A stale sidecar (wrong source hash, old version) is rewritten,
    # not trusted.
    for spoil in (_stale_source, _old_version):
        with open(sidecar, "wb") as handle:
            handle.write(spoil(good))
        assert store.ensure_predecoded(job.key) == sidecar
        assert open(sidecar, "rb").read() == good
    # No stored trace -> no sidecar.
    assert store.ensure_predecoded("0" * 40) is None
