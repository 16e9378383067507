"""Regions and round-by-round region splitting (Section IV-A, Fig. 5).

A *region* is a maximal set of vertices sharing the full ``ℓ``-dimensional
label vector.  Keeping one vector per region instead of one per vertex
reduces the label storage from ``O(ℓ·|V|)`` to ``O(|V| + ℓ·|R|)``, the
space argument of Section IV-A; at query time everything operates on
regions, never vertices.

Regions are built incrementally: after round ``r`` every region is a
maximal set agreeing on the first ``r`` label dimensions, and round
``r+1`` splits each region by its members' new labels (exactly the
splitting illustrated in Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.roadpart.window import Label, LabelBits, set_bits


@dataclass
class RegionSet:
    """The output of partitioning: each vertex's region id and each
    region's label vector.

    Construction also builds Theorem 2's window index: per dimension
    ``i``, a :class:`~repro.core.roadpart.window.LabelBits` over region
    ids (bit ``rid``) -- for every zone ``z``, the regions whose label
    has ``low ≤ z`` and those whose label has ``high ≥ z``.  A region
    meets a window label ``[wl, wh]`` iff it is in the first set at
    ``wh`` and the second at ``wl``, so :meth:`regions_in_window` ANDs
    ``2ℓ`` bitsets instead of testing every vector.
    """

    region_of: List[int]
    vectors: List[Tuple[Label, ...]]
    members: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.members:
            self.members = [[] for _ in self.vectors]
            for v, rid in enumerate(self.region_of):
                self.members[rid].append(v)
        self._window_bits = [LabelBits([vector[i] for vector in self.vectors])
                             for i in range(self.dimensions)]

    @property
    def region_count(self) -> int:
        """``|R|``, the region-count column of Table I."""
        return len(self.vectors)

    @property
    def dimensions(self) -> int:
        """``ℓ``, the number of label dimensions (= border vertices)."""
        return len(self.vectors[0]) if self.vectors else 0

    def max_region_size(self) -> int:
        """``M``, the evenness measure used to choose ``ℓ`` (Section
        VII-A: increase ℓ until M stabilises)."""
        return max(len(m) for m in self.members) if self.members else 0

    def vector_of_vertex(self, v: int) -> Tuple[Label, ...]:
        """Return ``vec(v)``, i.e. ``vec(R(v))``."""
        return self.vectors[self.region_of[v]]

    def regions_of_vertices(self, vertices) -> List[int]:
        """Return the distinct region ids covering a vertex set -- the
        ``R(Q)`` of query processing."""
        return sorted({self.region_of[v] for v in vertices})

    def regions_in_window(self, window: Sequence[Label]) -> List[int]:
        """Theorem 2's survivors, ascending: the ids ``rid`` for which
        :func:`~repro.core.roadpart.window.region_in_window` holds
        (window labels are intervals, ``low ≤ high``), from ``2ℓ``
        bitset ANDs (class docstring; window zones beyond the stored
        ones clamp)."""
        keep = (1 << len(self.vectors)) - 1
        for w, bits in zip(window, self._window_bits):
            keep &= bits.overlap(w)
            if not keep:
                return []
        return set_bits(keep)


class RegionBuilder:
    """Accumulates one labelling round at a time into a region partition."""

    def __init__(self, vertex_count: int) -> None:
        self._n = vertex_count
        self._region_of = [0] * vertex_count
        self._vectors: List[Tuple[Label, ...]] = [()]
        self._rounds = 0

    @property
    def rounds_applied(self) -> int:
        return self._rounds

    @property
    def current_region_count(self) -> int:
        return len(self._vectors)

    def apply_round(self, labels: Sequence[Label]) -> None:
        """Split every region by the new round's labels (Fig. 5)."""
        if len(labels) != self._n:
            raise ValueError(
                f"round labelled {len(labels)} vertices, expected {self._n}")
        mapping: Dict[Tuple[int, Label], int] = {}
        new_vectors: List[Tuple[Label, ...]] = []
        new_region_of = [0] * self._n
        region_of = self._region_of
        vectors = self._vectors
        for v in range(self._n):
            key = (region_of[v], labels[v])
            rid = mapping.get(key)
            if rid is None:
                rid = len(new_vectors)
                mapping[key] = rid
                new_vectors.append(vectors[key[0]] + (labels[v],))
            new_region_of[v] = rid
        self._region_of = new_region_of
        self._vectors = new_vectors
        self._rounds += 1

    def finish(self) -> RegionSet:
        """Return the final :class:`RegionSet`."""
        if self._rounds == 0:
            raise ValueError("no labelling rounds applied")
        return RegionSet(self._region_of, self._vectors)
