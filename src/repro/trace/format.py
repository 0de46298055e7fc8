"""The versioned struct-of-arrays on-disk trace format, and its container.

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
offline analysis and ``repro-cc trace info``.  The first ten, the
**stream sections** (:data:`STREAM_SECTIONS`), are everything replay
reads.

The container — magic, length-prefixed canonical-JSON header, section
table, payload SHA-256, little-endian tables — is one codec
(:func:`encode_container`, :func:`decode_container`,
:func:`read_header`) parameterised by a :class:`Container`: the trace
(:data:`TRACE`) and the pre-decoded sidecar
(:data:`repro.trace.predecode.SIDECAR`) are two instances of it.
:func:`load_streams` and :func:`materialize_stream` are the one path
from stream sections to ``DynInst`` objects for both.

Every decode error raises :class:`repro.errors.TraceError`; a corrupt,
truncated, or version-skewed file can never silently misreplay.  The
header is outside the payload checksum, so it is validated field by
field: a JSON object with a non-negative integer ``instructions``, and
every section the layout declares present, at the layout's typecode,
with non-negative integer ``count``, ``offset`` and ``bytes`` inside the
payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from array import array
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

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

#: The committed-stream sections: everything :func:`materialize_stream`
#: reads, and the whole of a pre-decoded sidecar.
STREAM_SECTIONS = SECTIONS[:10]

#: ``local_hint`` tri-state by flag bits 2-3.
_HINT_BY_CODE = (None, False, True)
_CODE_BY_HINT = {None: 0, False: 1, True: 2}

from repro.isa.opcodes import FuClass  # noqa: E402 - after stdlib block

_BRANCH = int(FuClass.BRANCH)


class Container(NamedTuple):
    """One file kind of the shared container codec."""

    magic: bytes
    version: int
    format: str  # the header's ``format`` field
    kind: str  # how error messages name the file
    sections: Tuple[Tuple[str, str], ...]

    @property
    def prefix(self) -> int:
        """Bytes before the JSON header: magic plus header length."""
        return len(self.magic) + _HEADER_LEN.size


TRACE = Container(MAGIC, TRACE_FORMAT_VERSION, "repro.trace", "trace",
                  SECTIONS)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_container(spec: Container, header: Dict[str, Any],
                     tables: Dict[str, Any]) -> bytes:
    """Serialize *tables* in *spec*'s section order; deterministic bytes.

    *header* supplies the file's own fields; ``format``, ``version``,
    ``byte_order``, ``sections`` and ``payload_sha256`` are added here.
    A ``bytearray`` table is a bitmap, one bit per instruction, so its
    count is the header's ``instructions``.
    """
    sections: List[Dict[str, Any]] = []
    chunks: List[bytes] = []
    position = 0
    for name, typecode in spec.sections:
        table = tables[name]
        if isinstance(table, bytearray):
            raw = bytes(table)
            count = header["instructions"]
        else:
            count = len(table)
            if not _LITTLE:
                table = array(typecode, table)
                table.byteswap()
            raw = table.tobytes()
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
    header = dict(header, format=spec.format, version=spec.version,
                  byte_order="little", sections=sections,
                  payload_sha256=hashlib.sha256(payload).hexdigest())
    header_bytes = _canonical_json(header).encode("utf-8")
    return (spec.magic + _HEADER_LEN.pack(len(header_bytes))
            + header_bytes + payload)


def _header_end(prefix: bytes, size: int, spec: Container,
                origin: str) -> int:
    """Check magic and header length against a *size*-byte file; returns
    the payload offset."""
    if len(prefix) < spec.prefix:
        raise TraceError(f"{origin}: truncated {spec.kind} (no header)")
    if prefix[:len(spec.magic)] != spec.magic:
        raise TraceError(f"{origin}: not a repro {spec.kind} (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(prefix, len(spec.magic))
    end = spec.prefix + header_len
    if size < end:
        raise TraceError(f"{origin}: truncated {spec.kind} header "
                         f"({header_len} bytes declared)")
    return end


def _parse_header(raw: bytes, spec: Container,
                  origin: str) -> Dict[str, Any]:
    """The JSON header, checked to be an object of *spec*'s version."""
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(
            f"{origin}: corrupt {spec.kind} header: {exc}") from None
    if not isinstance(header, dict):
        raise TraceError(f"{origin}: corrupt {spec.kind} header: "
                         f"{type(header).__name__}, not an object")
    version = header.get("version")
    if version != spec.version:
        raise TraceError(
            f"{origin}: {spec.kind} format version {version!r} is not the "
            f"version this build reads ({spec.version}); re-create the "
            f"{spec.kind}")
    return header


def _natural(mapping: Dict[str, Any], field: str, where: str) -> int:
    value = mapping.get(field)
    if type(value) is not int or value < 0:
        raise TraceError(f"{where}: {field!r} is {value!r}, not a "
                         f"non-negative integer")
    return value


def _section_table(header: Dict[str, Any], payload_len: int,
                   spec: Container,
                   origin: str) -> Dict[str, Dict[str, Any]]:
    """Validate ``instructions`` and the section table; sections by name."""
    _natural(header, "instructions", origin)
    sections = header.get("sections")
    if not isinstance(sections, list):
        raise TraceError(f"{origin}: {spec.kind} header has no section "
                         f"table")
    by_name: Dict[str, Dict[str, Any]] = {}
    for section in sections:
        if not isinstance(section, dict):
            raise TraceError(f"{origin}: malformed section entry "
                             f"{section!r}")
        name = section.get("name")
        where = f"{origin}: section {name!r}"
        for field in ("count", "offset", "bytes"):
            _natural(section, field, where)
        end = section["offset"] + section["bytes"]
        if end > payload_len:
            raise TraceError(
                f"{origin}: truncated {spec.kind} payload — section "
                f"{name!r} needs {end} bytes, {payload_len} present")
        by_name[name] = section
    for name, typecode in spec.sections:
        section = by_name.get(name)
        if section is None:
            raise TraceError(
                f"{origin}: {spec.kind} is missing section {name!r}")
        if section.get("typecode") != typecode:
            raise TraceError(
                f"{origin}: section {name!r} declares typecode "
                f"{section.get('typecode')!r}, the format's is {typecode!r}")
    return by_name


def decode_container(data: bytes, spec: Container, origin: str,
                     verify: bool = True
                     ) -> Tuple[Dict[str, Any], memoryview,
                                Dict[str, Dict[str, Any]]]:
    """Validate one encoded file: ``(header, payload, sections by name)``.

    With *verify*, the payload must match the header's SHA-256.
    """
    end = _header_end(data, len(data), spec, origin)
    header = _parse_header(data[spec.prefix:end], spec, origin)
    payload = memoryview(data)[end:]
    if verify:
        got = hashlib.sha256(payload).hexdigest()
        want = header.get("payload_sha256")
        if got != want:
            raise TraceError(
                f"{origin}: {spec.kind} payload checksum mismatch "
                f"(header {want}, payload {got}) — corrupt file")
    return header, payload, _section_table(header, len(payload), spec,
                                           origin)


def read_header(path: str, spec: Container = TRACE) -> Dict[str, Any]:
    """The validated header of one file, without reading its payload.

    The cheap identity probe: a trace's ``payload_sha256`` is what its
    sidecar's ``source_sha256`` must equal.  The section table is
    checked against the file size, so a truncated file fails here too.
    """
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            end = _header_end(handle.read(spec.prefix), size, spec, path)
            raw = handle.read(end - spec.prefix)
    except OSError as exc:
        raise TraceError(
            f"cannot read {spec.kind} {path!r}: {exc}") from None
    header = _parse_header(raw, spec, path)
    _section_table(header, size - end, spec, path)
    return header


def load_streams(payload: memoryview, by_name: Dict[str, Dict[str, Any]],
                 n: int, origin: str) -> Dict[str, array]:
    """The stream sections as host-order arrays of the layout's typecodes.

    Every table holds *n* entries except ``srcs``, which holds the sum
    of ``nsrc``.
    """
    tables: Dict[str, array] = {}
    for name, typecode in STREAM_SECTIONS:
        section = by_name[name]
        table = array(typecode)
        expected = sum(tables["nsrc"]) if name == "srcs" else n
        if section["bytes"] != expected * table.itemsize:
            raise TraceError(
                f"{origin}: section {name!r} holds {section['bytes']} "
                f"bytes, {expected} entries need "
                f"{expected * table.itemsize}")
        start = section["offset"]
        table.frombytes(payload[start:start + section["bytes"]])
        if not _LITTLE:
            table.byteswap()
        tables[name] = table
    return tables


def materialize_stream(tables: Dict[str, array], n: int) -> List[DynInst]:
    """Build the ``DynInst`` list from :func:`load_streams` tables."""
    fu = tables["fu"]
    dst = tables["dst"]
    nsrc = tables["nsrc"]
    srcs = tables["srcs"]
    addr = tables["addr"]
    size = tables["size"]
    flags = tables["flags"]
    frame = tables["frame"]
    offs = tables["offset"]
    pc = tables["pc"]
    insts: List[DynInst] = [None] * n  # type: ignore[list-item]
    new = DynInst.__new__
    cls = DynInst
    hints = _HINT_BY_CODE
    position = 0
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
    return insts


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


def _stats_from_header(body: Dict[str, Any], origin: str) -> TraceStats:
    stats = TraceStats()
    histogram = Histogram()
    try:
        for field in ("instructions", "loads", "stores", "local_loads",
                      "local_stores", "sp_based_refs", "ambiguous_refs",
                      "calls", "max_call_depth"):
            setattr(stats, field, int(body.get(field, 0)))
        for value, count in body.get("frame_sizes", ()):
            histogram.add(int(value), int(count))
    except (AttributeError, TypeError, ValueError) as exc:
        raise TraceError(f"{origin}: malformed trace stats: {exc}") from None
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

    tables = {
        "fu": fu, "dst": dst, "nsrc": nsrc, "srcs": srcs, "addr": addr,
        "size": size, "flags": flags, "frame": frame, "offset": offset,
        "pc": pc, "branch": branch,
        "gate_index": array("I", (g for g, _code in gates)),
        "gate_code": array("B", (code for _g, code in gates)),
    }
    header: Dict[str, Any] = {
        "workload": trace.name,
        "instructions": n,
        "stats": _stats_header(trace.stats),
    }
    if meta:
        header["meta"] = meta
    return encode_container(TRACE, header, tables)


def decode_trace(data: bytes, origin: str = "<bytes>",
                 verify: bool = True) -> Trace:
    """Deserialize one trace; raises :class:`TraceError` on any defect."""
    header, payload, by_name = decode_container(data, TRACE, origin,
                                                verify)
    n = header["instructions"]
    trace = Trace(header.get("workload", "<trace>"))
    trace.insts = materialize_stream(
        load_streams(payload, by_name, n, origin), n)
    trace.stats = _stats_from_header(header.get("stats", {}), origin)
    return trace


def read_trace(path: str, verify: bool = True) -> Trace:
    """Load one trace file (see :func:`decode_trace` for error behavior)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    return decode_trace(data, origin=path, verify=verify)


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
    header = read_header(path)
    return {
        "path": path,
        "file_bytes": os.path.getsize(path),
        "format": header.get("format"),
        "version": header.get("version"),
        "workload": header.get("workload"),
        "instructions": header.get("instructions"),
        "byte_order": header.get("byte_order"),
        "payload_bytes": max(s["offset"] + s["bytes"]
                             for s in header["sections"]),
        "payload_sha256": header.get("payload_sha256"),
        "sections": header.get("sections"),
        "stats": header.get("stats"),
        "meta": header.get("meta"),
    }
