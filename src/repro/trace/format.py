"""The versioned struct-of-arrays on-disk trace format.

A trace file is a serialized committed dynamic instruction stream — the
complete input of a timing simulation — laid out as flat per-field
tables rather than per-instruction records, so replay decodes it with a
handful of bulk ``array`` loads instead of a parser (see ``docs/trace.md``
for the byte-level layout).

Layout::

    8 bytes   magic  b"RPROTRC1"
    4 bytes   header length (u32, little-endian)
    N bytes   header: canonical JSON (sorted keys, no whitespace)
    M bytes   payload: the section tables, back to back

The header carries the format version, workload identity, the section
table (name, array typecode, element count, byte offset/length within
the payload), the trace-level statistics (:class:`~repro.vm.trace
.TraceStats`, including the frame-size histogram), optional capture
metadata, and the SHA-256 of the payload.  Every multi-byte section is
little-endian on disk regardless of host order.

Sections (one table per :class:`~repro.vm.trace.DynInst` field, plus
two derived tables):

========== ==== =======================================================
name       type contents
========== ==== =======================================================
fu         B    functional-unit class (``FuClass`` value)
dst        b    destination register, ``-1`` = none
nsrc       B    source-operand count (indexes the flat ``srcs`` table)
srcs       b    all source registers, concatenated in stream order
addr       I    effective byte address (memory ops; else 0)
size       B    access width in bytes (memory ops; else 0)
flags      B    bit0 ``is_local``, bit1 ``sp_based``,
                bits2-3 ``local_hint`` (0=None, 1=False, 2=True)
frame      I    activation-record id of the access
offset     i    static offset from the frame base
pc         I    static instruction index
branch     B    taken-branch bitmap, one bit per instruction
gate_index I    frontend gate list: instruction index per gate
gate_code  B    frontend gate list: gate code per gate
========== ==== =======================================================

``branch`` and the gate pair are **derived** tables: branch outcomes
fall out of the committed stream (a branch was taken iff the next
committed instruction is not its static successor), and the gate list
is what a default-geometry gshare frontend computes over the stream
(:meth:`repro.core.frontend.GshareFrontend.prepare`).  Replay does not
consume them — the frontend recomputes gates at bind time from the same
pure function, which is what keeps replay bit-identical under *any*
frontend configuration — but they make the trace self-describing for
offline analysis and ``repro-cc trace info``.

Every decode error raises :class:`repro.errors.TraceError`; a corrupt,
truncated, or version-skewed file can never silently misreplay.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.stats.histogram import Histogram
from repro.utils import write_atomic
from repro.vm.trace import DynInst, Trace, TraceStats

#: Bump on any incompatible change to the layout or field semantics.
#: Participates in the capture code salt (``repro.trace.capture``) and in
#: the config schema description (``repro.core.registry``), so stale
#: cached traces can never be replayed against a newer decoder.
TRACE_FORMAT_VERSION = 1

MAGIC = b"RPROTRC1"

_HEADER_LEN = struct.Struct("<I")
_LITTLE = sys.byteorder == "little"

#: (section name, array typecode) in on-disk order.
SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("fu", "B"),
    ("dst", "b"),
    ("nsrc", "B"),
    ("srcs", "b"),
    ("addr", "I"),
    ("size", "B"),
    ("flags", "B"),
    ("frame", "I"),
    ("offset", "i"),
    ("pc", "I"),
    ("branch", "B"),
    ("gate_index", "I"),
    ("gate_code", "B"),
)

#: ``local_hint`` tri-state by flag bits 2-3.
_HINT_BY_CODE = (None, False, True)
_CODE_BY_HINT = {None: 0, False: 1, True: 2}

from repro.isa.opcodes import FuClass  # noqa: E402 - after stdlib block

_BRANCH = int(FuClass.BRANCH)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _stats_header(stats: TraceStats) -> Dict[str, Any]:
    return {
        "instructions": stats.instructions,
        "loads": stats.loads,
        "stores": stats.stores,
        "local_loads": stats.local_loads,
        "local_stores": stats.local_stores,
        "sp_based_refs": stats.sp_based_refs,
        "ambiguous_refs": stats.ambiguous_refs,
        "calls": stats.calls,
        "max_call_depth": stats.max_call_depth,
        "frame_sizes": [[value, count]
                        for value, count in stats.frame_sizes.items()],
    }


def _stats_from_header(body: Dict[str, Any]) -> TraceStats:
    stats = TraceStats()
    for field in ("instructions", "loads", "stores", "local_loads",
                  "local_stores", "sp_based_refs", "ambiguous_refs",
                  "calls", "max_call_depth"):
        setattr(stats, field, int(body.get(field, 0)))
    histogram = Histogram()
    for value, count in body.get("frame_sizes", ()):
        histogram.add(int(value), int(count))
    stats.frame_sizes = histogram
    return stats


def _default_gates(insts) -> List[Tuple[int, int]]:
    """The gate list a default-geometry gshare frontend derives."""
    from repro.core.frontend import FrontendConfig, GshareFrontend

    return GshareFrontend(FrontendConfig(policy="gshare")).prepare(insts)


def encode_trace(trace: Trace,
                 meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize *trace* to the on-disk format; deterministic bytes.

    The same trace always encodes to the same bytes (canonical JSON
    header, no timestamps), so capture is content-addressable and the
    determinism test can compare files byte for byte.
    """
    insts = trace.insts
    n = len(insts)
    fu = array("B")
    dst = array("b")
    nsrc = array("B")
    srcs = array("b")
    addr = array("I")
    size = array("B")
    flags = array("B")
    frame = array("I")
    offset = array("i")
    pc = array("I")
    branch = bytearray((n + 7) >> 3)
    try:
        for i in range(n):
            inst = insts[i]
            fu.append(inst.fu)
            dst.append(inst.dst)
            sources = inst.srcs
            nsrc.append(len(sources))
            srcs.extend(sources)
            addr.append(inst.addr)
            size.append(inst.size)
            flags.append((1 if inst.is_local else 0)
                         | (2 if inst.sp_based else 0)
                         | (_CODE_BY_HINT[inst.local_hint] << 2))
            frame.append(inst.frame_id)
            offset.append(inst.offset)
            pc.append(inst.pc)
            if (inst.fu == _BRANCH and i + 1 < n
                    and insts[i + 1].pc != inst.pc + 1):
                branch[i >> 3] |= 1 << (i & 7)
    except (OverflowError, KeyError) as exc:
        raise TraceError(
            f"instruction {i} does not fit the trace format: {exc}"
        ) from None
    gates = _default_gates(insts)
    gate_index = array("I", (g for g, _code in gates))
    gate_code = array("B", (code for _g, code in gates))

    tables = {
        "fu": fu, "dst": dst, "nsrc": nsrc, "srcs": srcs, "addr": addr,
        "size": size, "flags": flags, "frame": frame, "offset": offset,
        "pc": pc, "branch": branch, "gate_index": gate_index,
        "gate_code": gate_code,
    }
    sections: List[Dict[str, Any]] = []
    chunks: List[bytes] = []
    position = 0
    for name, typecode in SECTIONS:
        table = tables[name]
        if isinstance(table, bytearray):
            raw = bytes(table)
            count = n  # bit-per-instruction table
        else:
            if not _LITTLE:
                table = array(typecode, table)
                table.byteswap()
            raw = table.tobytes()
            count = len(tables[name])
        sections.append({
            "name": name,
            "typecode": typecode,
            "count": count,
            "offset": position,
            "bytes": len(raw),
        })
        chunks.append(raw)
        position += len(raw)
    payload = b"".join(chunks)

    header: Dict[str, Any] = {
        "format": "repro.trace",
        "version": TRACE_FORMAT_VERSION,
        "workload": trace.name,
        "instructions": n,
        "byte_order": "little",
        "sections": sections,
        "stats": _stats_header(trace.stats),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    if meta:
        header["meta"] = meta
    header_bytes = _canonical_json(header).encode("utf-8")
    return (MAGIC + _HEADER_LEN.pack(len(header_bytes))
            + header_bytes + payload)


def _parse_header(data: bytes, origin: str) -> Tuple[Dict[str, Any], int]:
    """Validate magic/length/JSON/version; returns (header, payload off)."""
    if len(data) < len(MAGIC) + _HEADER_LEN.size:
        raise TraceError(f"{origin}: truncated trace (no header)")
    if data[:len(MAGIC)] != MAGIC:
        raise TraceError(f"{origin}: not a repro trace (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(data, len(MAGIC))
    offset = len(MAGIC) + _HEADER_LEN.size + header_len
    if len(data) < offset:
        raise TraceError(f"{origin}: truncated trace header "
                         f"({header_len} bytes declared)")
    try:
        header = json.loads(
            data[len(MAGIC) + _HEADER_LEN.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{origin}: corrupt trace header: {exc}") from None
    version = header.get("version")
    if version != TRACE_FORMAT_VERSION:
        raise TraceError(
            f"{origin}: trace format version {version!r} is not the "
            f"version this build reads ({TRACE_FORMAT_VERSION}); "
            f"re-capture the trace")
    return header, offset


def _sections_by_name(header: Dict[str, Any], payload_len: int,
                      origin: str) -> Dict[str, Dict[str, Any]]:
    by_name: Dict[str, Dict[str, Any]] = {}
    for section in header.get("sections", ()):
        by_name[section["name"]] = section
        end = section["offset"] + section["bytes"]
        if end > payload_len:
            raise TraceError(
                f"{origin}: truncated trace payload — section "
                f"{section['name']!r} needs {end} bytes, "
                f"{payload_len} present")
    for name, _typecode in SECTIONS:
        if name not in by_name:
            raise TraceError(f"{origin}: trace is missing section {name!r}")
    return by_name


def _load_section(payload: bytes, section: Dict[str, Any]) -> array:
    table = array(section["typecode"])
    table.frombytes(
        payload[section["offset"]:section["offset"] + section["bytes"]])
    if not _LITTLE:
        table.byteswap()
    return table


def decode_trace(data: bytes, origin: str = "<bytes>",
                 verify: bool = True) -> Trace:
    """Deserialize one trace; raises :class:`TraceError` on any defect."""
    header, offset = _parse_header(data, origin)
    payload = memoryview(data)[offset:]
    by_name = _sections_by_name(header, len(payload), origin)
    if verify:
        got = hashlib.sha256(payload).hexdigest()
        want = header.get("payload_sha256")
        if got != want:
            raise TraceError(
                f"{origin}: trace payload checksum mismatch "
                f"(header {want}, payload {got}) — corrupt file")

    n = header["instructions"]
    fu = _load_section(payload, by_name["fu"])
    dst = _load_section(payload, by_name["dst"])
    nsrc = _load_section(payload, by_name["nsrc"])
    srcs = _load_section(payload, by_name["srcs"])
    addr = _load_section(payload, by_name["addr"])
    size = _load_section(payload, by_name["size"])
    flags = _load_section(payload, by_name["flags"])
    frame = _load_section(payload, by_name["frame"])
    offs = _load_section(payload, by_name["offset"])
    pc = _load_section(payload, by_name["pc"])
    for name, table in (("fu", fu), ("dst", dst), ("nsrc", nsrc),
                        ("addr", addr), ("size", size), ("flags", flags),
                        ("frame", frame), ("offset", offs), ("pc", pc)):
        if len(table) != n:
            raise TraceError(
                f"{origin}: section {name!r} holds {len(table)} entries "
                f"for {n} instructions")

    insts: List[DynInst] = [None] * n  # type: ignore[list-item]
    new = DynInst.__new__
    cls = DynInst
    hints = _HINT_BY_CODE
    position = 0
    try:
        for i in range(n):
            inst = new(cls)
            inst.fu = fu[i]
            inst.dst = dst[i]
            count = nsrc[i]
            if count:
                inst.srcs = tuple(srcs[position:position + count])
                position += count
            else:
                inst.srcs = ()
            inst.addr = addr[i]
            inst.size = size[i]
            bits = flags[i]
            inst.local_hint = hints[(bits >> 2) & 3]
            inst.is_local = bool(bits & 1)
            inst.sp_based = bool(bits & 2)
            inst.frame_id = frame[i]
            inst.offset = offs[i]
            inst.pc = pc[i]
            insts[i] = inst
    except IndexError:
        raise TraceError(
            f"{origin}: flat srcs table exhausted at instruction {i} "
            f"— inconsistent nsrc section") from None
    if position != len(srcs):
        raise TraceError(
            f"{origin}: srcs table has {len(srcs)} entries, "
            f"instructions consumed {position}")

    trace = Trace(header.get("workload", "<trace>"))
    trace.insts = insts
    trace.stats = _stats_from_header(header.get("stats", {}))
    return trace


def read_trace(path: str, verify: bool = True) -> Trace:
    """Load one trace file (see :func:`decode_trace` for error behavior)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    return decode_trace(data, origin=path, verify=verify)


def read_trace_header(path: str) -> Dict[str, Any]:
    """Parsed header of a trace file without reading the payload.

    The cheap identity probe: ``payload_sha256`` from the returned
    header is what derived artifacts (the predecode sidecar) are
    content-addressed to.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(MAGIC) + _HEADER_LEN.size)
            if len(prefix) < len(MAGIC) + _HEADER_LEN.size:
                raise TraceError(f"{path}: truncated trace (no header)")
            if prefix[:len(MAGIC)] != MAGIC:
                raise TraceError(f"{path}: not a repro trace (bad magic)")
            (header_len,) = _HEADER_LEN.unpack_from(prefix, len(MAGIC))
            header_bytes = handle.read(header_len)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    header, _offset = _parse_header(prefix + header_bytes, origin=path)
    return header


def write_trace(trace: Trace, path: str,
                meta: Optional[Dict[str, Any]] = None) -> str:
    """Serialize *trace* to *path* atomically; returns the path."""
    payload = encode_trace(trace, meta=meta)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    write_atomic(path, payload)
    return path


def trace_info(path: str) -> Dict[str, Any]:
    """Header summary of a trace file without decoding the payload.

    Used by ``repro-cc trace info``: format version, workload, lengths,
    section table, statistics, capture metadata, and the payload hash.
    The declared payload length is checked against the file size, so a
    truncated file is reported here too.
    """
    try:
        file_size = os.path.getsize(path)
        with open(path, "rb") as handle:
            prefix = handle.read(len(MAGIC) + _HEADER_LEN.size)
            if len(prefix) < len(MAGIC) + _HEADER_LEN.size:
                raise TraceError(f"{path}: truncated trace (no header)")
            if prefix[:len(MAGIC)] != MAGIC:
                raise TraceError(f"{path}: not a repro trace (bad magic)")
            (header_len,) = _HEADER_LEN.unpack_from(prefix, len(MAGIC))
            header_bytes = handle.read(header_len)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    header, offset = _parse_header(
        prefix + header_bytes, origin=path)
    payload_len = file_size - offset
    by_name = _sections_by_name(header, payload_len, path)
    declared = max(s["offset"] + s["bytes"] for s in by_name.values())
    return {
        "path": path,
        "file_bytes": file_size,
        "format": header.get("format"),
        "version": header.get("version"),
        "workload": header.get("workload"),
        "instructions": header.get("instructions"),
        "byte_order": header.get("byte_order"),
        "payload_bytes": declared,
        "payload_sha256": header.get("payload_sha256"),
        "sections": header.get("sections"),
        "stats": header.get("stats"),
        "meta": header.get("meta"),
    }
