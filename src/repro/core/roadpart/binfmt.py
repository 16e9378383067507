"""Compact binary RoadPart index layout, loadable zero-copy via mmap.

The legacy on-disk index is JSON (``roadpart-index-v1``): simple, but a
load parses and materialises every ``O(|V|)`` structure as Python
objects, and every daemon worker or fork pool pays that again.  This
module defines ``roadpart-index-bin-v2``, a sectioned little-endian
binary layout whose large arrays are read through :mod:`mmap`:

- the file's pages are shared by every process that maps it (the OS
  page cache holds one copy per host, however many daemons serve it);
- the ``O(|V|)`` ``region_of`` array is exposed as a ``memoryview``
  cast straight over the mapping -- no parse, no copy, and forked
  workers inherit the mapping itself rather than a copy-on-write heap;
- small derived structures (region label vectors, the bridge set) are
  materialised eagerly -- they are ``O(ℓ|R| + |bridges|)``, far below
  ``O(|V|)``, and query code needs them as tuples/sets anyway.

Layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RPIX"
    4       4     version        u32  (always 2)
    8       4     flags          u32  (reserved, must be 0)
    12      4     num_vertices   u32
    16      4     border_count   u32  (= label dimensions, ℓ)
    20      4     region_count   u32
    24      4     bridge_count   u32
    28      4     section_count  u32  (4, or 9 with an oracle)
    32      ...   section table: section_count × (tag 8s, offset u64,
                  length u64) -- offsets from file start
    ...           section payloads, packed in table order, each
                  starting at the next 8-aligned offset

Sections (tags are 8 bytes, NUL-padded), in file order:

    ``borders``   border_count u32 vertex ids, contour order
    ``regionof``  num_vertices u32 region ids (vertex-indexed)
    ``vectors``   region_count × ℓ × 2 u32 zone numbers, region-major,
                  ``(lo, hi)`` per dimension
    ``bridges``   bridge_count × 2 u32 endpoints, pairs sorted
                  ascending (the same order ``to_dict`` emits)

An index carrying the hub-label distance oracle (see
:mod:`repro.shortestpath.oracle`) appends five more sections; an
oracle-less index simply has none of them:

    ``oracle``    4 u32 meta words: kind (1 = hub labels, the only
                  kind), hub count, label entries, reserved (0)
    ``orhubs``    hub vertex ids, processing order (u32)
    ``orloff``    num_vertices+1 label offsets (u32, CSR)
    ``orlhub``    label hub ids, vertex-major (u32)
    ``orldst``    label distances (f64, same order)

The f64 payload is an mmap view too (cast ``"d"``), so a daemon loads
million-entry label sets without materialising a single Python float.

Every structural defect raises :class:`~repro.errors.IndexFormatError`
naming the path and the problem, mirroring the JSON loader's contract:
another version (version-1 files from older builds included), an
unknown section tag or oracle kind code, sections out of layout order,
counts that disagree with section lengths, and vertex ids (border
vertices, bridge endpoints, hubs) or region ids out of range.  The
label offsets must run from 0 to the entry count without decreasing;
the label entries themselves are not scanned, so a load stays cheap.
Binding to the wrong network is the caller's check (``num_vertices``
is in the header).
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IndexFormatError

MAGIC = b"RPIX"
VERSION = 2
FORMAT_NAME = "roadpart-index-bin-v2"

_HEADER = struct.Struct("<4sIIIIIII")
_SECTION = struct.Struct("<8sQQ")
_U32_MAX = 0xFFFFFFFF

#: Base section tags in file order.
SECTION_TAGS = (b"borders", b"regionof", b"vectors", b"bridges")

#: Oracle meta section: kind, hub count, label entries, reserved.
ORACLE_META_TAG = b"oracle"
#: Hub-label oracle payload sections, file order.
HUB_SECTION_TAGS = (b"orhubs", b"orloff", b"orlhub", b"orldst")
#: Every section an oracle-carrying file adds after the base ones.
ORACLE_SECTION_TAGS = (ORACLE_META_TAG,) + HUB_SECTION_TAGS
#: The hub-label oracle's code in the meta section's kind word.
HUB_KIND_CODE = 1

#: The two section sequences a file may carry.
_LAYOUTS = (SECTION_TAGS, SECTION_TAGS + ORACLE_SECTION_TAGS)
_MAX_SECTIONS = len(_LAYOUTS[-1])


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def _u32_bytes(values) -> bytes:
    out = bytearray()
    for v in values:
        if not 0 <= v <= _U32_MAX:
            raise ValueError(f"value {v} does not fit in u32")
        out += struct.pack("<I", v)
    return bytes(out)


def _f64_bytes(values) -> bytes:
    out = bytearray()
    for v in values:
        out += struct.pack("<d", v)
    return bytes(out)


def _tag_names(tags) -> str:
    return ", ".join(t.decode("ascii", "replace") for t in tags)


def write_index_binary(path, num_vertices: int,
                       border_vertex_ids: Sequence[int],
                       region_of: Sequence[int],
                       vectors: Sequence[Tuple[Tuple[int, int], ...]],
                       bridges: Sequence[Tuple[int, int]],
                       oracle: Optional[Dict[str, object]] = None) -> None:
    """Serialise one index's parts as a binary RoadPart index file.

    ``bridges`` must already be the canonical sorted pair list (the
    writer sorts defensively so binary and JSON agree byte-for-byte on
    bridge order).  ``oracle`` is a hub-label payload dict (the
    ``to_payload`` form); without one the oracle sections are omitted.
    """
    dims = len(vectors[0]) if vectors else len(border_vertex_ids)
    flat_vectors: List[int] = []
    for vector in vectors:
        if len(vector) != dims:
            raise ValueError("ragged region vectors")
        for lo, hi in vector:
            flat_vectors.append(lo)
            flat_vectors.append(hi)
    bridge_pairs = sorted(tuple(b) for b in bridges)
    payloads = {
        b"borders": _u32_bytes(border_vertex_ids),
        b"regionof": _u32_bytes(region_of),
        b"vectors": _u32_bytes(flat_vectors),
        b"bridges": _u32_bytes(v for pair in bridge_pairs for v in pair),
    }
    tags = SECTION_TAGS
    if oracle is not None:
        meta = (HUB_KIND_CODE, len(oracle["hubs"]),
                len(oracle["label_hubs"]), 0)
        payloads.update({
            ORACLE_META_TAG: _u32_bytes(meta),
            b"orhubs": _u32_bytes(oracle["hubs"]),
            b"orloff": _u32_bytes(oracle["offsets"]),
            b"orlhub": _u32_bytes(oracle["label_hubs"]),
            b"orldst": _f64_bytes(oracle["label_dists"]),
        })
        tags = SECTION_TAGS + ORACLE_SECTION_TAGS
    table_offset = _HEADER.size
    data_offset = _pad8(table_offset + _SECTION.size * len(tags))
    table = bytearray()
    body = bytearray()
    for tag in tags:
        payload = payloads[tag]
        offset = data_offset + len(body)
        table += _SECTION.pack(tag.ljust(8, b"\0"), offset, len(payload))
        body += payload
        body += b"\0" * (_pad8(len(payload)) - len(payload))
    header = _HEADER.pack(MAGIC, VERSION, 0, num_vertices,
                          len(border_vertex_ids), len(vectors),
                          len(bridge_pairs), len(tags))
    blob = header + bytes(table)
    blob += b"\0" * (data_offset - len(blob))
    blob += bytes(body)
    with open(path, "wb") as stream:
        stream.write(blob)


@dataclass
class BinaryIndexHeader:
    """The fixed header plus the section table of one binary index."""

    version: int
    num_vertices: int
    border_count: int
    region_count: int
    bridge_count: int
    sections: Dict[bytes, Tuple[int, int]]  #: tag -> (offset, length)


@dataclass
class BinaryIndexPayload:
    """Everything :func:`read_index_binary` hands back.

    ``region_of`` is a ``memoryview`` cast over the mapping on
    little-endian hosts (zero-copy; indexing and iteration behave like
    a list of ints).  ``mapping`` must stay referenced for as long as
    any view into it lives -- callers stash it on the index object.
    """

    header: BinaryIndexHeader
    border_vertex_ids: List[int]
    region_of: Sequence[int]
    vectors: List[Tuple[Tuple[int, int], ...]]
    bridges: List[Tuple[int, int]]
    mapping: object
    #: Oracle payload dict (``to_payload`` form, arrays as mmap views),
    #: or ``None`` when the file carries no oracle sections.
    oracle: Optional[Dict[str, object]] = None


def sniff_binary(path) -> bool:
    """True when ``path`` starts with the binary index magic."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_header(path,
                data: Optional[memoryview] = None) -> BinaryIndexHeader:
    """Parse and validate the header + section table of ``path``.

    ``data`` (the full mapped file) is optional; without it the bytes
    are read directly -- ``repro index info`` uses this to describe a
    file without touching its payload sections.
    """
    table_max = _HEADER.size + _SECTION.size * _MAX_SECTIONS
    if data is None:
        with open(path, "rb") as stream:
            raw = stream.read(table_max)
        size = os.path.getsize(path)
    else:
        raw = bytes(data[:table_max])
        size = len(data)
    if len(raw) < _HEADER.size:
        raise IndexFormatError(
            f"{path}: truncated header ({len(raw)} bytes, need"
            f" {_HEADER.size})")
    (magic, version, flags, num_vertices, border_count, region_count,
     bridge_count, section_count) = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise IndexFormatError(
            f"{path}: not a binary RoadPart index (magic {magic!r},"
            f" expected {MAGIC!r})")
    if version != VERSION:
        raise IndexFormatError(
            f"{path}: unsupported binary index version {version}"
            f" (this build reads only version {VERSION}, {FORMAT_NAME};"
            f" rebuild the index)")
    if flags != 0:
        raise IndexFormatError(
            f"{path}: reserved flags field is {flags:#x}, expected 0")
    if not len(SECTION_TAGS) <= section_count <= _MAX_SECTIONS:
        raise IndexFormatError(
            f"{path}: implausible section count {section_count}"
            f" (expected {len(SECTION_TAGS)} to {_MAX_SECTIONS})")
    table_end = _HEADER.size + _SECTION.size * section_count
    if len(raw) < table_end:
        raise IndexFormatError(
            f"{path}: truncated section table ({len(raw)} bytes, need"
            f" {table_end})")
    sections: Dict[bytes, Tuple[int, int]] = {}
    for i in range(section_count):
        tag, offset, length = _SECTION.unpack_from(
            raw, _HEADER.size + _SECTION.size * i)
        tag = tag.rstrip(b"\0")
        name = tag.decode("ascii", "replace")
        if offset + length > size:
            raise IndexFormatError(
                f"{path}: section {name!r} runs past end of file"
                f" (offset {offset} + length {length} > {size})")
        if length % 4:
            raise IndexFormatError(
                f"{path}: section {name!r} length {length} is not a"
                f" multiple of 4")
        if tag in sections:
            raise IndexFormatError(f"{path}: duplicate section {name!r}")
        sections[tag] = (offset, length)
    known = _LAYOUTS[-1]
    unknown = [t for t in sections if t not in known]
    if unknown:
        raise IndexFormatError(
            f"{path}: unknown section {_tag_names(unknown)} (this build"
            f" understands: {_tag_names(sorted(known))}; rebuild the"
            f" index)")
    if tuple(sections) not in _LAYOUTS:
        raise IndexFormatError(
            f"{path}: sections {_tag_names(sections)} are missing or out"
            f" of layout order (expected {_tag_names(known)}; the oracle"
            f" sections come all or none)")
    expected = _pad8(table_end)
    for tag, (offset, length) in sections.items():
        if offset != expected:
            raise IndexFormatError(
                f"{path}: section {tag.decode('ascii')!r} starts at"
                f" offset {offset}, the layout puts it at {expected}")
        expected = _pad8(offset + length)
    return BinaryIndexHeader(version, num_vertices, border_count,
                             region_count, bridge_count, sections)


def _view(path, data: memoryview, header: BinaryIndexHeader, tag: bytes,
          expected: int, fmt: str = "I") -> Sequence:
    """Typed view of one section (``"I"`` u32 or ``"d"`` f64), checked
    against the element count the header/meta words imply."""
    offset, length = header.sections[tag]
    width = struct.calcsize(fmt)
    if length != expected * width:
        raise IndexFormatError(
            f"{path}: section {tag.decode('ascii')!r} holds"
            f" {length // width} {'u32' if fmt == 'I' else 'f64'}s,"
            f" header implies {expected}")
    view = data[offset:offset + length]
    if sys.byteorder == "little":
        return view.cast(fmt)
    # Big-endian host: one byte-swapped copy (correctness over zero-copy
    # on the rare platform where the layout is foreign).
    import array
    arr = array.array(fmt, view.tobytes())
    arr.byteswap()
    return arr


def _check_ids(path, what: str, ids: Sequence[int], limit: int,
               bound: str = "num_vertices") -> None:
    """Every id must be below ``limit``: query code indexes by them."""
    top = max(ids, default=-1)
    if top >= limit:
        raise IndexFormatError(
            f"{path}: {what} {top} out of range ({bound} {limit})")


def _oracle_counts(path, meta: Sequence[int]) -> Tuple[int, int]:
    """Validate the four oracle meta words; returns ``(hub count, label
    entries)``."""
    code, hub_count, entries, reserved = meta
    if code != HUB_KIND_CODE:
        raise IndexFormatError(
            f"{path}: unsupported oracle kind code {code} (this build"
            f" reads only hub labels, code {HUB_KIND_CODE}; rebuild the"
            f" index)")
    if reserved != 0:
        raise IndexFormatError(
            f"{path}: oracle reserved word is {reserved:#x}, expected 0")
    return hub_count, entries


def read_oracle_meta(path, header: BinaryIndexHeader,
                     ) -> Optional[Tuple[int, int]]:
    """Return ``(hub count, label entries)`` from the oracle meta
    section without touching the payload arrays (``repro index info``),
    or ``None`` when the file carries no oracle."""
    got = header.sections.get(ORACLE_META_TAG)
    if got is None:
        return None
    offset, length = got
    if length != 16:
        raise IndexFormatError(
            f"{path}: oracle meta section is {length} bytes, expected 16")
    with open(path, "rb") as stream:
        stream.seek(offset)
        raw = stream.read(16)
    return _oracle_counts(path, struct.unpack("<IIII", raw))


def _read_oracle(path, data: memoryview,
                 header: BinaryIndexHeader) -> Dict[str, object]:
    """Decode the oracle sections into the payload-dict form
    :func:`repro.shortestpath.oracle.oracle_from_payload` accepts, with
    the big arrays as zero-copy views over the mapping."""
    n = header.num_vertices
    hub_count, entries = _oracle_counts(
        path, _view(path, data, header, ORACLE_META_TAG, 4))
    hubs = _view(path, data, header, b"orhubs", hub_count)
    _check_ids(path, "oracle hub", hubs, n)
    offsets = _view(path, data, header, b"orloff", n + 1)
    if (offsets[0] != 0 or offsets[n] != entries
            or any(a > b for a, b in zip(offsets, offsets[1:]))):
        raise IndexFormatError(
            f"{path}: oracle label offsets must run from 0 to {entries}"
            f" without decreasing")
    return {"kind": "hub", "hubs": hubs, "offsets": offsets,
            "label_hubs": _view(path, data, header, b"orlhub", entries),
            "label_dists": _view(path, data, header, b"orldst", entries,
                                 "d")}


def read_index_binary(path) -> BinaryIndexPayload:
    """mmap ``path`` and decode it into index parts.

    The ``regionof`` section -- the only ``O(|V|)`` payload -- stays a
    view over the mapping; everything else is materialised as the small
    Python structures query code consumes.
    """
    with open(path, "rb") as stream:
        if os.path.getsize(path) == 0:
            raise IndexFormatError(f"{path}: empty file")
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    data = memoryview(mapped)
    header = read_header(path, data)
    n = header.num_vertices
    dims = header.border_count
    borders = list(_view(path, data, header, b"borders", dims))
    _check_ids(path, "border vertex", borders, n)
    region_of = _view(path, data, header, b"regionof", n)
    _check_ids(path, "region id", region_of, header.region_count,
               "region_count")
    flat = _view(path, data, header, b"vectors",
                 header.region_count * dims * 2)
    vectors: List[Tuple[Tuple[int, int], ...]] = []
    for r in range(header.region_count):
        base = r * dims * 2
        vectors.append(tuple((flat[base + 2 * d], flat[base + 2 * d + 1])
                             for d in range(dims)))
    flat_bridges = _view(path, data, header, b"bridges",
                         header.bridge_count * 2)
    _check_ids(path, "bridge endpoint", flat_bridges, n)
    bridges = [(flat_bridges[2 * i], flat_bridges[2 * i + 1])
               for i in range(header.bridge_count)]
    oracle = None
    if ORACLE_META_TAG in header.sections:
        oracle = _read_oracle(path, data, header)
    return BinaryIndexPayload(header, borders, region_of, vectors,
                              bridges, mapped, oracle)
