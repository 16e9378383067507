"""The RoadPart index on disk: ``roadpart-index-bin-v4``, loaded via mmap.

This module is the one place that knows the index's bytes: it writes
them and checks them on load.  It is a sectioned little-endian layout
whose large arrays are read through :mod:`mmap`:

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
    4       4     version        u32  (always 4)
    8       4     flags          u32  (reserved, must be 0)
    12      4     num_vertices   u32
    16      4     border_count   u32  (= label dimensions, ℓ)
    20      4     region_count   u32
    24      4     bridge_count   u32
    28      4     section_count  u32  (4, or 7 with an oracle)
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
                  ascending

An index carrying the endpoint tree table (see
:mod:`repro.shortestpath.oracle`) appends three more sections; an
oracle-less index simply has none of them:

    ``oracle``    2 u32 meta words: kind (1 = endpoint tree table, the
                  only kind) and endpoint count E
    ``orends``    E endpoint vertex ids (u32), ascending
    ``ordist``    E × num_vertices f64 distances, endpoint-major (one
                  row per endpoint; +inf where unreachable)

The predecessors of each endpoint's tree are derived from its ``dist``
row where a query walks them, so no section stores them.  The row
section is an mmap view too (cast ``"d"``), so a daemon loads a table
of millions of cells without materialising a single Python number, and
no load ever scans it.  The writer hands every section to ``write``
straight from its buffer, so saving an index copies no table row, and
writes a sibling file that then replaces the target.

Every structural defect raises :class:`~repro.errors.IndexFormatError`
naming the path and the problem: a file that is not this layout (a
JSON index or a version 1 to 3 file from an older build gets a
rebuild note), an unknown section tag or oracle kind code, sections
out of layout order, counts that disagree with section lengths,
vertex ids (border vertices, bridge endpoints, table endpoints) or
region ids out of range, a label that is not a zone interval ``1 ≤ lo
≤ hi ≤ ℓ``, and table endpoints that are not exactly the bridge
endpoints, sorted and unique.  The row cells are checked where a
query reads them, so a load stays ``O(|V| + ℓ|R| + |endpoints|)``.
Binding to the wrong network is the caller's check (``num_vertices``
is in the header).
"""

from __future__ import annotations

import array
import mmap
import os
import struct
import sys
from dataclasses import dataclass
from operator import gt
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import IndexFormatError

if TYPE_CHECKING:
    from repro.shortestpath.oracle import HubOracle

MAGIC = b"RPIX"
VERSION = 4
FORMAT_NAME = "roadpart-index-bin-v4"

_HEADER = struct.Struct("<4sIIIIIII")
_SECTION = struct.Struct("<8sQQ")
#: Base section tags in file order.
SECTION_TAGS = (b"borders", b"regionof", b"vectors", b"bridges")

#: Oracle meta section: kind code and endpoint count.
ORACLE_META_TAG = b"oracle"
#: Endpoint tree table sections, file order: endpoint ids, then the
#: ``dist`` rows.
TABLE_SECTION_TAGS = (b"orends", b"ordist")
#: Every section an oracle-carrying file adds after the base ones.
ORACLE_SECTION_TAGS = (ORACLE_META_TAG,) + TABLE_SECTION_TAGS
#: The endpoint tree table's code in the meta section's kind word.
TABLE_KIND_CODE = 1

#: The two section sequences a file may carry.
_LAYOUTS = (SECTION_TAGS, SECTION_TAGS + ORACLE_SECTION_TAGS)
_MAX_SECTIONS = len(_LAYOUTS[-1])


def _pad8(n: int) -> int:
    return (n + 7) & ~7


#: Array type code and element name per section payload format.
_ELEMENTS = {"I": "u32", "d": "f64"}


def _le_bytes(values, typecode: str = "I"):
    """Little-endian bytes of ``values``: numbers via one ``array``
    conversion instead of one ``struct.pack`` per value, or a
    native-order ``memoryview`` such as the table rows, passed through
    as a byte view on a little-endian host so the writer never copies
    it."""
    if isinstance(values, memoryview):
        if sys.byteorder == "little":
            return values.cast("B")
        arr = array.array(typecode, values.tobytes())
    else:
        try:
            arr = array.array(typecode, values)
        except OverflowError as exc:
            raise ValueError(f"a value does not fit in"
                             f" {_ELEMENTS[typecode]}: {exc}") from exc
    if sys.byteorder != "little":
        arr.byteswap()
    return arr.tobytes()


def _tag_names(tags) -> str:
    return ", ".join(t.decode("ascii", "replace") for t in tags)


def write_index_binary(path, num_vertices: int,
                       border_vertex_ids: Sequence[int],
                       region_of: Sequence[int],
                       vectors: Sequence[Tuple[Tuple[int, int], ...]],
                       bridges: Sequence[Tuple[int, int]],
                       oracle: Optional["HubOracle"] = None) -> None:
    """Serialise one index's parts as a binary RoadPart index file.

    The writer sorts ``bridges`` into the canonical pair order.  An
    ``oracle`` (endpoint tree table) adds the oracle sections, its
    ``dist`` rows written straight from their buffer; without one they
    are omitted.
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
        b"borders": _le_bytes(border_vertex_ids),
        b"regionof": _le_bytes(region_of),
        b"vectors": _le_bytes(flat_vectors),
        b"bridges": _le_bytes(v for pair in bridge_pairs for v in pair),
    }
    tags = SECTION_TAGS
    if oracle is not None:
        payloads.update({
            ORACLE_META_TAG: _le_bytes((TABLE_KIND_CODE,
                                        len(oracle.hubs))),
            b"orends": _le_bytes(oracle.hubs),
            b"ordist": _le_bytes(oracle.rows, "d"),
        })
        tags = SECTION_TAGS + ORACLE_SECTION_TAGS
    table_offset = _HEADER.size
    data_offset = _pad8(table_offset + _SECTION.size * len(tags))
    table = bytearray()
    chunks = []
    offset = data_offset
    for tag in tags:
        payload = payloads[tag]
        table += _SECTION.pack(tag.ljust(8, b"\0"), offset, len(payload))
        chunks += (payload, b"\0" * (_pad8(len(payload)) - len(payload)))
        offset += _pad8(len(payload))
    header = _HEADER.pack(MAGIC, VERSION, 0, num_vertices,
                          len(border_vertex_ids), len(vectors),
                          len(bridge_pairs), len(tags))
    head = header + bytes(table)
    # Each section goes to ``write`` from its own buffer: no joined
    # copy of the file, and no copy of a row section at all.  The rows
    # may be a view over ``path`` itself (an mmap-loaded index saved in
    # place), so the bytes go to a sibling file that then replaces
    # ``path``: truncating the mapped file would pull the rows away
    # mid-write.
    partial = f"{os.fspath(path)}.{os.getpid()}.partial"
    try:
        with open(partial, "wb") as stream:
            stream.write(head + b"\0" * (data_offset - len(head)))
            for chunk in chunks:
                stream.write(chunk)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


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
    #: The endpoint tree table, or ``None`` when the file carries no
    #: oracle sections: the endpoint ids (checked to be the bridge
    #: endpoints) and the ``dist`` rows as a view over the mapping.
    hubs: Optional[List[int]] = None
    dist: Optional[Sequence[float]] = None


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
    if raw.startswith(b"{"):
        raise IndexFormatError(
            f"{path}: JSON indexes (roadpart-index-v1) are no longer"
            f" read (this build reads only {FORMAT_NAME}); rebuild the"
            f" index with repro build-index")
    if raw[:len(MAGIC)] != MAGIC:
        raise IndexFormatError(
            f"{path}: not a binary RoadPart index (magic"
            f" {raw[:len(MAGIC)]!r}, expected {MAGIC!r}); build one with"
            f" repro build-index")
    if len(raw) < _HEADER.size:
        raise IndexFormatError(
            f"{path}: truncated header ({len(raw)} bytes, need"
            f" {_HEADER.size})")
    (_, version, flags, num_vertices, border_count, region_count,
     bridge_count, section_count) = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise IndexFormatError(
            f"{path}: unsupported binary index version {version}"
            f" (this build reads only version {VERSION}, {FORMAT_NAME};"
            f" rebuild the index with repro build-index)")
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
            f" {length // width} {_ELEMENTS[fmt]}s, header implies"
            f" {expected}")
    view = data[offset:offset + length]
    if sys.byteorder == "little":
        return view.cast(fmt)
    # Big-endian host: one byte-swapped copy (correctness over zero-copy
    # on the rare platform where the layout is foreign).
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


def _endpoint_count(path, meta: Sequence[int]) -> int:
    """Validate the two oracle meta words; returns the endpoint count."""
    code, count = meta
    if code != TABLE_KIND_CODE:
        raise IndexFormatError(
            f"{path}: unsupported oracle kind code {code} (this build"
            f" reads only the endpoint tree table, code"
            f" {TABLE_KIND_CODE}; rebuild the index)")
    return count


def read_oracle_meta(path, header: BinaryIndexHeader) -> Optional[int]:
    """Return the table's endpoint count from the oracle meta section
    without touching the row sections (``repro index info``), or
    ``None`` when the file carries no oracle."""
    got = header.sections.get(ORACLE_META_TAG)
    if got is None:
        return None
    offset, length = got
    if length != 8:
        raise IndexFormatError(
            f"{path}: oracle meta section is {length} bytes, expected 8")
    with open(path, "rb") as stream:
        stream.seek(offset)
        raw = stream.read(8)
    return _endpoint_count(path, struct.unpack("<II", raw))


def _check_labels(path, lows: Sequence[int], highs: Sequence[int],
                  zones: int) -> None:
    """Every label must be a zone interval ``1 ≤ lo ≤ hi ≤ ℓ``:
    :func:`~repro.core.roadpart.labeling.label_round` numbers the zones
    ``1..ℓ``, and :class:`~repro.core.roadpart.window.LabelBits` sizes
    its prefix lists by the span of the stored zones.  Three C-level
    passes; only a failure walks the labels to name the first bad
    one."""
    if (min(lows, default=1) >= 1 and max(highs, default=zones) <= zones
            and not any(map(gt, lows, highs))):
        return
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        if not 1 <= lo <= hi <= zones:
            raise IndexFormatError(
                f"{path}: region {i // zones}, dimension {i % zones}:"
                f" label ({lo}, {hi}) is not a zone interval"
                f" 1 <= low <= high <= {zones}")


def _read_table(path, data: memoryview, header: BinaryIndexHeader,
                bridge_ends: Sequence[int],
                ) -> Tuple[List[int], Sequence[float]]:
    """The table's endpoint ids and its ``dist`` rows, a zero-copy view
    over the mapping (``O(E)`` work: only the endpoint ids are read).
    The ids must be exactly ``bridge_ends``' distinct values, sorted: a
    row keyed by the wrong vertex would answer for the wrong bridge."""
    n = header.num_vertices
    count = _endpoint_count(
        path, _view(path, data, header, ORACLE_META_TAG, 2))
    ends = list(_view(path, data, header, b"orends", count))
    _check_ids(path, "oracle endpoint", ends, n)
    expected = sorted(set(bridge_ends))
    if ends != expected:
        raise IndexFormatError(
            f"{path}: oracle endpoints ({len(ends)}) are not the bridge"
            f" endpoints ({len(expected)}), sorted and unique")
    return ends, _view(path, data, header, b"ordist", count * n, "d")


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
    lows, highs = flat[0::2], flat[1::2]
    _check_labels(path, lows, highs, dims)
    labels = zip(lows, highs)
    vectors: List[Tuple[Tuple[int, int], ...]] = (
        list(zip(*[labels] * dims)) if dims
        else [()] * header.region_count)
    flat_bridges = _view(path, data, header, b"bridges",
                         header.bridge_count * 2)
    _check_ids(path, "bridge endpoint", flat_bridges, n)
    bridges = list(zip(flat_bridges[0::2], flat_bridges[1::2]))
    payload = BinaryIndexPayload(header, borders, region_of, vectors,
                                 bridges, mapped)
    if ORACLE_META_TAG in header.sections:
        payload.hubs, payload.dist = _read_table(path, data, header,
                                                 flat_bridges)
    return payload
