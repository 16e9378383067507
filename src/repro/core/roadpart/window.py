"""Label algebra and window computation (Section IV-C of the paper).

The *window* ``W`` is an ``ℓ``-dimensional label vector covering every
query point; regions whose vector misses ``W`` in any dimension are
pruned (Theorem 2).  The paper shows the naive per-dimension union of
query-region labels (its Equation (1)) can be much looser than necessary,
and gives an initialisation + expansion procedure producing a tight
window; both are implemented (the loose one as Ablation B).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Label = Tuple[int, int]


def label_union(a: Label, b: Label) -> Label:
    """``[l,h] ∪ [l',h'] = [min(l,l'), max(h,h')]``."""
    return (min(a[0], b[0]), max(a[1], b[1]))


def label_intersection(a: Label, b: Label) -> Optional[Label]:
    """``[l,h] ∩ [l',h']``, or None when the intervals are disjoint."""
    low = max(a[0], b[0])
    high = min(a[1], b[1])
    if low <= high:
        return (low, high)
    return None


def labels_intersect(a: Label, b: Label) -> bool:
    """Fast emptiness test for :func:`label_intersection`."""
    return max(a[0], b[0]) <= min(a[1], b[1])


def comp(label: Label, window_label: Label) -> int:
    """The three-way comparison of Section V-C.

    ``+1`` when the label is strictly above the window interval, ``-1``
    strictly below, ``0`` when they overlap (the vertex occupies a zone
    inside the window span).
    """
    if label[0] > window_label[1]:
        return 1
    if window_label[0] > label[1]:
        return -1
    return 0


def loose_window(query_vectors: Sequence[Tuple[Label, ...]]) -> List[Label]:
    """Equation (1): the per-dimension union of the query regions' labels.

    Simple but loose -- a single query vertex lying *on* a far cut drags
    the whole window out to that cut (the ``[4,6]`` example of Fig. 6(b)).
    Kept for Ablation B.
    """
    if not query_vectors:
        raise ValueError("no query regions")
    dims = len(query_vectors[0])
    window = list(query_vectors[0])
    for vector in query_vectors[1:]:
        for i in range(dims):
            window[i] = label_union(window[i], vector[i])
    return window


def tight_window(query_vectors: Sequence[Tuple[Label, ...]]) -> List[Label]:
    """The initialisation + expansion window of Section IV-C.

    Initialisation: per dimension, prefer a query region with a degenerate
    label ``[l, l]`` (a region wholly inside one zone); otherwise collapse
    an arbitrary query region's label to its lower endpoint.  Expansion:
    grow the window per region only until their labels *touch* -- a region
    labelled ``[4, 6]`` is already covered by a window ending at 4 because
    interval endpoints are always zones the region's vertices actually
    occupy.
    """
    if not query_vectors:
        raise ValueError("no query regions")
    dims = len(query_vectors[0])
    window: List[Label] = []
    for i in range(dims):
        chosen: Optional[Label] = None
        for vector in query_vectors:
            if vector[i][0] == vector[i][1]:
                chosen = vector[i]
                break
        if chosen is None:
            low = query_vectors[0][i][0]
            chosen = (low, low)
        window.append(chosen)
    for vector in query_vectors:
        for i in range(dims):
            low_w, high_w = window[i]
            low_r, high_r = vector[i]
            if labels_intersect(window[i], vector[i]):
                continue  # Case 1: already covered
            if low_w > high_r:
                window[i] = (high_r, high_w)  # Case 2: extend downward
            else:
                window[i] = (low_w, low_r)    # Case 3: extend upward
    return window


def region_in_window(vector: Tuple[Label, ...],
                     window: Sequence[Label]) -> bool:
    """Theorem 2's keep test: a region survives iff its label intersects
    the window in *every* dimension."""
    for label, w in zip(vector, window):
        if max(label[0], w[0]) > min(label[1], w[1]):
            return False
    return True


class LabelBits:
    """Prefix bitsets over one dimension's labels, bit ``i`` standing for
    ``labels[i]`` (Python ints): :meth:`low_le` is the set with ``low ≤
    z`` and :meth:`high_ge` the set with ``high ≥ z``.

    Built once in ``O(n + zones)`` ORs; each lookup is a list read.
    Zones beyond the stored ones clamp: nothing has ``low`` below every
    stored zone, and everything has ``high`` at or above the lowest.
    ``comp(labels[i], w)`` (:func:`comp`) is ``0`` for the bits of
    :meth:`overlap`, ``+1`` for those missing from ``low_le(w[1])`` and
    ``-1`` for those missing from ``high_ge(w[0])``.
    """

    __slots__ = ("_full", "_z0", "_low_le", "_high_ge")

    def __init__(self, labels: Sequence[Label]) -> None:
        self._full = (1 << len(labels)) - 1
        z0 = min((low for low, _ in labels), default=0)
        width = max((high for _, high in labels), default=z0 - 1) - z0 + 1
        low_le = [0] * width
        high_ge = [0] * width
        for i, (low, high) in enumerate(labels):
            bit = 1 << i
            low_le[low - z0] |= bit
            high_ge[high - z0] |= bit
        for k in range(1, width):
            low_le[k] |= low_le[k - 1]
            high_ge[width - 1 - k] |= high_ge[width - k]
        self._z0 = z0
        self._low_le = low_le
        self._high_ge = high_ge

    def low_le(self, z: int) -> int:
        """The labels with ``low ≤ z``."""
        k = z - self._z0
        if k < 0:
            return 0
        return self._low_le[k] if k < len(self._low_le) else self._full

    def high_ge(self, z: int) -> int:
        """The labels with ``high ≥ z``."""
        k = z - self._z0
        if k <= 0:
            return self._full
        return self._high_ge[k] if k < len(self._high_ge) else 0

    def overlap(self, window_label: Label) -> int:
        """The labels meeting the interval ``window_label``."""
        return (self.low_le(window_label[1])
                & self.high_ge(window_label[0]))


def set_bits(bits: int) -> List[int]:
    """The positions of the set bits of ``bits``, ascending."""
    # The '1' positions of the LSB-first binary.
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out
