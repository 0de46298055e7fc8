"""On-disk trace format: round trips, determinism, corruption paths."""

from __future__ import annotations

import hashlib
import json
import os
import struct

import pytest

from repro.errors import TraceError
from repro.trace import predecode
from repro.trace.format import (
    MAGIC,
    SECTIONS,
    TRACE_FORMAT_VERSION,
    decode_trace,
    encode_trace,
    read_trace,
    trace_info,
    write_trace,
)
from repro.workloads.builder import build_trace, build_trace_uncached

FIELDS = ("fu", "dst", "srcs", "addr", "size", "local_hint", "is_local",
          "sp_based", "frame_id", "offset", "pc")

_HEADER_START = len(MAGIC) + 4


@pytest.fixture(scope="module")
def trace():
    return build_trace("130.li", length=12_000, seed=3)


@pytest.fixture(scope="module")
def data(trace):
    return encode_trace(trace)


def _patch_header(data: bytes, mutate) -> bytes:
    """Rewrite the JSON header in place (payload untouched).

    *mutate* edits the header, or returns a replacement for it.  Works
    on any container (trace or sidecar): the magic is kept.
    """
    magic = data[:_HEADER_START - 4]
    (header_len,) = struct.unpack_from("<I", data, len(magic))
    header = json.loads(data[_HEADER_START:_HEADER_START + header_len])
    replaced = mutate(header)
    if replaced is not None:
        header = replaced
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return (magic + struct.pack("<I", len(raw)) + raw
            + data[_HEADER_START + header_len:])


def test_round_trip_is_field_exact(trace, data):
    decoded = decode_trace(data)
    assert decoded.name == trace.name
    assert len(decoded) == len(trace)
    for original, copy in zip(trace.insts, decoded.insts):
        for field in FIELDS:
            assert getattr(copy, field) == getattr(original, field)


def test_round_trip_preserves_stats(trace, data):
    decoded = decode_trace(data)
    for field in ("instructions", "loads", "stores", "local_loads",
                  "local_stores", "sp_based_refs", "ambiguous_refs"):
        assert getattr(decoded.stats, field) == getattr(trace.stats, field)
    assert (sorted(decoded.stats.frame_sizes.items())
            == sorted(trace.stats.frame_sizes.items()))


def test_encode_is_deterministic(trace, data):
    assert encode_trace(trace) == data
    # And idempotent through a decode cycle.
    assert encode_trace(decode_trace(data)) == data


def test_write_is_byte_identical_across_runs(trace, tmp_path):
    first = tmp_path / "a.trace"
    second = tmp_path / "b.trace"
    write_trace(trace, str(first))
    write_trace(trace, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert len(read_trace(str(first))) == len(trace)


def test_trace_info_reads_header_only(trace, tmp_path):
    path = str(tmp_path / "t.trace")
    write_trace(trace, path, meta={"kind": "trace-capture"})
    info = trace_info(path)
    assert info["version"] == TRACE_FORMAT_VERSION
    assert info["workload"] == trace.name
    assert info["instructions"] == len(trace)
    assert info["meta"] == {"kind": "trace-capture"}
    assert [s["name"] for s in info["sections"]] == [n for n, _ in SECTIONS]


def test_empty_and_short_inputs_rejected():
    with pytest.raises(TraceError, match="truncated"):
        decode_trace(b"")
    with pytest.raises(TraceError, match="truncated"):
        decode_trace(MAGIC + b"\x01")


def test_bad_magic_rejected(data):
    with pytest.raises(TraceError, match="bad magic"):
        decode_trace(b"NOTATRCE" + data[len(MAGIC):])


def test_garbage_header_rejected():
    body = b"not json!!"
    blob = MAGIC + struct.pack("<I", len(body)) + body
    with pytest.raises(TraceError, match="corrupt trace header"):
        decode_trace(blob)


def test_truncated_payload_rejected(data, tmp_path):
    truncated = data[:-64]
    with pytest.raises(TraceError):
        decode_trace(truncated)
    path = tmp_path / "cut.trace"
    path.write_bytes(truncated)
    with pytest.raises(TraceError, match="truncated trace payload"):
        trace_info(str(path))
    with pytest.raises(TraceError):
        read_trace(str(path))


def test_corrupt_payload_fails_checksum(data):
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    with pytest.raises(TraceError, match="checksum mismatch"):
        decode_trace(bytes(flipped))


def test_verify_false_skips_checksum(data):
    # Corrupting a derived (gate) table leaves the instruction stream
    # intact, so the unverified decode still round-trips.
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    decoded = decode_trace(bytes(flipped), verify=False)
    assert len(decoded) == len(decode_trace(data))


def test_version_skew_rejected(data):
    def bump(header):
        header["version"] = TRACE_FORMAT_VERSION + 1

    with pytest.raises(TraceError, match="format version"):
        decode_trace(_patch_header(data, bump))


def test_missing_section_rejected(data):
    def drop(header):
        header["sections"] = [s for s in header["sections"]
                              if s["name"] != "addr"]

    with pytest.raises(TraceError, match="missing section"):
        decode_trace(_patch_header(data, drop))


def test_nonexistent_file_rejected(tmp_path):
    with pytest.raises(TraceError, match="cannot read trace"):
        read_trace(str(tmp_path / "absent.trace"))


def _set_section(index, field, value):
    def mutate(header):
        header["sections"][index][field] = value
    return mutate


def _drop_field(field, index=None):
    def mutate(header):
        del (header if index is None else header["sections"][index])[field]
    return mutate


#: Malformed but parseable headers: the header is outside the payload
#: checksum, so each must be refused field by field.
HEADER_DEFECTS = {
    "not-an-object": lambda header: [],
    "no-instructions": _drop_field("instructions"),
    "negative-instructions": lambda header: header.update(instructions=-1),
    "section-without-offset": _drop_field("offset", 0),
    "section-without-bytes": _drop_field("bytes", 1),
    "section-without-count": _drop_field("count", 2),
    "string-offset": _set_section(0, "offset", "0"),
    "negative-bytes": _set_section(1, "bytes", -1),
    "fractional-count": _set_section(2, "count", 1.5),
    "typecode-disagrees": _set_section(0, "typecode", "b"),
}


def _run_entry(entry, data, mutate, tmp_path):
    if entry == "decode_predecoded":
        blob = predecode.encode_predecoded(predecode.predecode_trace(data))
        return predecode.decode_predecoded(_patch_header(blob, mutate))
    patched = _patch_header(data, mutate)
    if entry == "decode_trace":
        return decode_trace(patched)
    if entry == "predecode_trace":
        return predecode.predecode_trace(patched)
    path = tmp_path / "bad.trace"
    path.write_bytes(patched)
    return trace_info(str(path))


@pytest.mark.parametrize("entry", ["decode_trace", "predecode_trace",
                                   "decode_predecoded", "trace_info"])
@pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
def test_malformed_header_raises_trace_error(entry, defect, data,
                                             tmp_path):
    with pytest.raises(TraceError):
        _run_entry(entry, data, HEADER_DEFECTS[defect], tmp_path)


_EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "perfbench", "expected.json")


def _synthetic_pins():
    with open(_EXPECTED) as handle:
        synthetic = json.load(handle)["synthetic"]
    return [(name, synthetic["length"], synthetic["gen_seed"],
             entry["trace_sha256"])
            for name, entry in sorted(synthetic["programs"].items())]


@pytest.mark.parametrize("program,length,seed,sha256", _synthetic_pins())
def test_trace_bytes_match_the_benchmark_pins(program, length, seed,
                                              sha256):
    """``encode_trace`` bytes of the benchmark's synthetic traces are
    pinned: any change to the format or the generator shows here."""
    trace = build_trace_uncached(program, length=length, seed=seed)
    assert len(trace) == length
    assert hashlib.sha256(encode_trace(trace)).hexdigest() == sha256
