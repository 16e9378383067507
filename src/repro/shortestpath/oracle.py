"""Distance oracle for the bridge-domain workload.

RoadPart's dominant query phase is ``bridge-domains``: for every
examined bridge ``(u, v)`` a dual-heap Dijkstra settles the network
until each query vertex ``x`` is reached from both endpoints, just to
test the domain memberships ``dist(x,u) = dist(x,v) + |vu|`` (and the
symmetric one).  That is a pure point-to-point distance workload over
pairs ``(x, bridge endpoint)`` -- exactly what a precomputed distance
oracle answers without touching the graph.  :class:`HubOracle` builds
2-hop hub labels (:mod:`repro.shortestpath.hub_labels`) offline for the
RoadPart index, and the query processor consults them online.

The labels are a pruned landmark labelling restricted to the **bridge
endpoints** as hubs.  PLL's correctness invariant -- the label distance
of a pair is exact whenever some processed hub lies on a shortest path
between them -- makes this partial build exact for every pair ``(x, e)``
with ``e`` a bridge endpoint (``e`` is a hub and lies on its own
shortest paths), i.e. for the *entire* bridge-domain workload, at
``O(|endpoints|)`` pruned sweeps instead of a full ``O(|V|)``-hub PLL.
Hubs are processed grouped by index region (region id order, by
descending degree inside a region), which keeps the construction a
per-region phase with per-region trace spans; any hub order is
correct, so the grouping is free.

``resolve_oracle_kind`` implements the build-time policy behind
``oracle="auto"``: hub labels when the network has bridges (cheap
build, exact for the workload), no oracle otherwise.

Query-time entry point: :meth:`HubOracle.scratch` returns a per-query
helper that caches the target-label inversion across all bridges of
one query, then :meth:`OracleScratch.bridge_valid` answers the Theorem
5 validity test for one bridge.  Membership uses the same
:func:`~repro.shortestpath.bidirectional._in_domain` tolerance as the
dual-heap engines, so oracle decisions coincide with theirs.

The oracle answers *distances only*; anything needing actual shortest
paths (the pred-tree patching of valid bridges) falls back to the
fused flat kernel -- which is what keeps DPS outputs byte-identical
with and without an oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder, resolve_trace
from repro.shortestpath.bidirectional import _in_domain
from repro.shortestpath.hub_labels import HubLabelIndex

#: Build/query policies: ``auto`` (hub labels when there are bridges,
#: resolved by :func:`resolve_oracle_kind`) and ``none`` (no oracle).
ORACLE_POLICIES = ("auto", "none")


def resolve_oracle_kind(kind: str, bridges: Iterable) -> str:
    """Resolve an oracle policy to ``"hub"`` or ``"none"``.

    ``auto`` builds hub labels over the bridge endpoints when the
    network has bridges (a handful of pruned sweeps, exact for the
    whole bridge-domain workload) and nothing when it has none (an
    oracle could never be consulted).

    Any iterable is accepted: sized containers are probed with
    ``len()`` and never consumed; only a non-sized iterable (a
    generator, say) is drained by the emptiness probe, so callers that
    need the bridges afterwards must materialise first -- as
    :func:`build_oracle` does.
    """
    if kind not in ORACLE_POLICIES:
        raise ValueError(
            f"unknown oracle kind {kind!r}; choose from {ORACLE_POLICIES}")
    if kind == "auto":
        if hasattr(bridges, "__len__"):
            return "hub" if len(bridges) else "none"
        return "hub" if any(True for _ in bridges) else "none"
    return kind


class OracleScratch:
    """Per-query oracle state, shared across all bridges of one query.

    Subclasses cache whatever makes per-bridge answers cheap -- the
    hub-bucket inversion of the target labels, identical for every
    bridge of the query -- and implement :meth:`domain_maps`.
    """

    def domain_maps(self, u: int, v: int,
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Return ``({x: dist(x,u)}, {x: dist(x,v)})`` over the query
        targets; unreachable targets are absent (mirrors the dual-heap
        engines, which never settle them)."""
        raise NotImplementedError

    def bridge_valid(self, u: int, v: int, weight: float) -> bool:
        """Theorem 5 validity of bridge ``(u, v)``: are both ``UD*``
        and ``VD*`` non-empty?  Early-exits on the first member of
        each."""
        du_map, dv_map = self.domain_maps(u, v)
        has_ud = has_vd = False
        for x, du in du_map.items():
            dv = dv_map.get(x)
            if dv is None:
                continue
            if not has_ud and _in_domain(du, dv, weight):
                has_ud = True
            if not has_vd and _in_domain(dv, du, weight):
                has_vd = True
            if has_ud and has_vd:
                return True
        return False

    def domains(self, u: int, v: int, weight: float,
                ) -> Tuple[Set[int], Set[int]]:
        """Full ``(UD*, VD*)`` membership sets -- the oracle-side
        equivalent of :func:`~repro.shortestpath.bidirectional.
        bridge_domains` restricted to distances (no pred trees)."""
        du_map, dv_map = self.domain_maps(u, v)
        ud: Set[int] = set()
        vd: Set[int] = set()
        for x, du in du_map.items():
            dv = dv_map.get(x)
            if dv is None:
                continue
            if _in_domain(du, dv, weight):
                ud.add(x)
            if _in_domain(dv, du, weight):
                vd.add(x)
        return ud, vd


class _HubScratch(OracleScratch):
    """Bucket-inverted hub-label lookups for one query.

    Intersecting ``L(x)`` with ``L(e)`` per pair costs
    ``O(min(|L(x)|, |L(e)|))`` dict probes -- cheap, but paid
    ``|bridges| * |targets|`` times.  Inverting the *target* labels
    once per query (hub → ``[(x, dist(hub, x))]``) turns each endpoint
    into one min-plus pass over its own small label, amortising the
    target side across every bridge of the query.
    """

    def __init__(self, oracle: "HubOracle", targets: Sequence[int]) -> None:
        self._oracle = oracle
        self._targets = list(targets)
        self._bucket: Optional[Dict[int, List[Tuple[int, float]]]] = None
        self._endpoint_memo: Dict[int, Dict[int, float]] = {}

    def _ensure_bucket(self) -> Dict[int, List[Tuple[int, float]]]:
        if self._bucket is None:
            bucket: Dict[int, List[Tuple[int, float]]] = {}
            label_items = self._oracle.label_items
            for x in self._targets:
                for h, d in label_items(x):
                    bucket.setdefault(h, []).append((x, d))
            self._bucket = bucket
        return self._bucket

    def _endpoint_distances(self, e: int) -> Dict[int, float]:
        got = self._endpoint_memo.get(e)
        if got is not None:
            return got
        bucket = self._ensure_bucket()
        dist: Dict[int, float] = {}
        get = dist.get
        for h, a in self._oracle.label_items(e):
            for x, dx in bucket.get(h, ()):
                c = a + dx
                known = get(x)
                if known is None or c < known:
                    dist[x] = c
        self._endpoint_memo[e] = dist
        return dist

    def domain_maps(self, u: int, v: int,
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        return self._endpoint_distances(u), self._endpoint_distances(v)


class HubOracle:
    """2-hop labels over the bridge endpoints (partial PLL).

    Exact for every pair with a hub endpoint -- the coverage is the hub
    set itself, which is why :meth:`covers` tests endpoint membership.
    Labels live either as the builder's per-vertex dicts or as flat
    offset/hub/distance arrays (zero-copy views over an mmap-loaded
    binary index); :meth:`label_items` hides the difference.
    """

    kind = "hub"

    def __init__(self, hub_order: Sequence[int],
                 label_dicts: Optional[List[Dict[int, float]]] = None,
                 offsets: Optional[Sequence[int]] = None,
                 label_hubs: Optional[Sequence[int]] = None,
                 label_dists: Optional[Sequence[float]] = None) -> None:
        self._hub_order: Tuple[int, ...] = tuple(hub_order)
        self._hub_set: FrozenSet[int] = frozenset(self._hub_order)
        self._label_dicts = label_dicts
        self._offsets = offsets
        self._label_hubs = label_hubs
        self._label_dists = label_dists
        if label_dicts is None and offsets is None:
            raise ValueError("HubOracle needs label dicts or flat arrays")

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, network: RoadNetwork, bridges: Iterable[Tuple[int, int]],
              region_of: Optional[Sequence[int]] = None,
              trace: Optional[TraceRecorder] = None,
              engine: str = "flat") -> "HubOracle":
        """Run the per-region construction phase.

        Hubs are the distinct bridge endpoints, grouped by region (when
        ``region_of`` is given) and ordered by descending degree inside
        each group -- deterministic, so serial and fork-parallel index
        builds produce byte-identical oracles.  Each region group gets
        its own ``region-<id>`` trace span under a ``pll-scalar`` or
        ``pll-vectorized`` span naming the builder that ran, under the
        caller's ``oracle`` span.

        ``engine="numpy"`` routes construction through the batched
        :class:`~repro.shortestpath.vec.VecHubLabeler`; the labels --
        and therefore the serialised index, JSON or binary -- are
        byte-identical to the scalar builder's, so the engine is a pure
        speed knob (and quietly degrades to scalar without a backend,
        exactly like the query-side engines).
        """
        from repro.shortestpath.flat import resolve_engine
        trace = resolve_trace(trace)
        endpoints = sorted({e for bridge in bridges for e in bridge})
        groups: List[Tuple[Optional[int], List[int]]] = []
        if region_of is None:
            groups.append((None, endpoints))
        else:
            by_region: Dict[int, List[int]] = {}
            for e in endpoints:
                by_region.setdefault(region_of[e], []).append(e)
            groups = [(rid, by_region[rid]) for rid in sorted(by_region)]
        ordered = [(rid, sorted(members,
                                key=lambda v: (-network.degree(v), v)))
                   for rid, members in groups]
        if resolve_engine(engine) == "numpy":
            # Lazy import: vec.py imports this module at top level.
            from repro.shortestpath.vec import VecHubLabeler
            planned = [e for _, members in ordered for e in members]
            labeler = VecHubLabeler(network, planned)
            with trace.span("pll-vectorized"):
                for rid, members in ordered:
                    label = ("region-all" if rid is None
                             else f"region-{rid}")
                    with trace.span(label):
                        for e in members:
                            labeler.add_hub(e)
            offsets, label_hubs, label_dists = labeler.label_arrays()
            return cls(tuple(planned), offsets=offsets,
                       label_hubs=label_hubs, label_dists=label_dists)
        index = HubLabelIndex(network, hubs=())
        with trace.span("pll-scalar"):
            for rid, members in ordered:
                label = "region-all" if rid is None else f"region-{rid}"
                with trace.span(label):
                    for e in members:
                        index.add_hub(e)
        n = network.num_vertices
        return cls(index.hubs,
                   label_dicts=[index.label_of(v) for v in range(n)])

    # -- storage -------------------------------------------------------

    def label_items(self, x: int) -> Iterable[Tuple[int, float]]:
        """The label of vertex ``x`` as ``(hub, dist)`` pairs, in hub
        processing order (the canonical serialisation order)."""
        if self._label_dicts is not None:
            return self._label_dicts[x].items()
        lo = self._offsets[x]
        hi = self._offsets[x + 1]
        return zip(self._label_hubs[lo:hi], self._label_dists[lo:hi])

    def num_vertices(self) -> int:
        if self._label_dicts is not None:
            return len(self._label_dicts)
        return len(self._offsets) - 1

    @property
    def hub_order(self) -> Tuple[int, ...]:
        return self._hub_order

    # -- queries -------------------------------------------------------

    def covers(self, u: int, v: int) -> bool:
        """True when both endpoints are hubs, i.e. the labels answer
        ``(x, u)`` / ``(x, v)`` pairs exactly for arbitrary ``x``."""
        return u in self._hub_set and v in self._hub_set

    def scratch(self, targets: Sequence[int]) -> OracleScratch:
        """Per-query helper over a fixed target set."""
        # The vectorized scratch produces bit-identical distance maps
        # (same min over the same candidate multiset), so picking it
        # whenever the backend is up never changes an answer.
        from repro.vec.backend import has_backend
        if has_backend():
            from repro.shortestpath.vec import VecHubScratch
            return VecHubScratch(self, targets)
        return _HubScratch(self, targets)

    def entry_count(self) -> int:
        """Stored label entries -- the size driver."""
        if self._label_dicts is not None:
            return sum(len(label) for label in self._label_dicts)
        return len(self._label_hubs)

    def oracle_bytes(self) -> int:
        # 4-byte hub id + 8-byte distance per entry, 4-byte offsets.
        return 12 * self.entry_count() + 4 * (self.num_vertices() + 1)

    def describe(self) -> str:
        """One human line for build logs."""
        return (f"hub labels over {len(self._hub_order)} bridge-endpoint"
                f" hubs, {self.entry_count()} entries"
                f" (covers (x, endpoint) pairs)")

    def to_payload(self) -> Dict[str, object]:
        """Flat-array form for the binary/JSON serialisers."""
        offsets: List[int] = [0]
        hubs: List[int] = []
        dists: List[float] = []
        for x in range(self.num_vertices()):
            for h, d in self.label_items(x):
                hubs.append(h)
                dists.append(d)
            offsets.append(len(hubs))
        return {"kind": "hub", "hubs": list(self._hub_order),
                "offsets": offsets, "label_hubs": hubs,
                "label_dists": dists}


# ----------------------------------------------------------------------
# Construction / serialisation entry points
# ----------------------------------------------------------------------


def build_oracle(network: RoadNetwork, kind: str,
                 bridges: Iterable[Tuple[int, int]],
                 region_of: Optional[Sequence[int]] = None,
                 trace: Optional[TraceRecorder] = None,
                 engine: str = "flat") -> Optional[HubOracle]:
    """Build the oracle a policy resolves to (``None`` for none).

    ``bridges`` may be any iterable, a generator included: it is
    materialised exactly once here, so the ``auto`` emptiness probe and
    the hub-endpoint collection see the same elements (a generator used
    to be drained by the probe, leaving the hub build with no
    endpoints).  ``engine`` selects the hub-label builder.
    """
    bridges = list(bridges)
    if resolve_oracle_kind(kind, bridges) == "none":
        return None
    return HubOracle.build(network, bridges, region_of=region_of,
                           trace=trace, engine=engine)


def oracle_from_payload(payload: Dict[str, object]) -> HubOracle:
    """Rehydrate an oracle from its flat-array payload (JSON lists or
    zero-copy binary views -- both index loaders funnel through here)."""
    kind = payload.get("kind")
    if kind != "hub":
        raise ValueError(f"unknown oracle payload kind {kind!r}")
    return HubOracle(payload["hubs"],
                     offsets=payload["offsets"],
                     label_hubs=payload["label_hubs"],
                     label_dists=payload["label_dists"])
