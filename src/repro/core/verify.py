"""Distance-preservation verification.

The theorems of the paper (1, 3, 6-9) guarantee each algorithm's output is
a DPS under stated assumptions (planarity outside the detected bridge set,
cuts being shortest paths).  This module *checks the invariant directly*:
``dist_{G'}(s, t) == dist_G(s, t)`` for pairs from ``S × T``, with the
restricted distance computed by running Dijkstra inside the candidate
vertex set.  The test suite leans on this for every algorithm and dataset
rather than trusting the proofs transfer to floating-point geometry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple, Union

from repro.core.dps import DPSQuery, DPSResult
from repro.graph.network import RoadNetwork
from repro.shortestpath.dijkstra import sssp

#: Relative tolerance for distance equality (floating-point path sums).
DIST_REL_TOL = 1e-9


@dataclass
class VerificationReport:
    """Outcome of a distance-preservation check."""

    ok: bool
    pairs_checked: int
    failures: List[Tuple[int, int, float, float]] = field(default_factory=list)
    #: each failure is (s, t, dist_in_G, dist_in_subgraph or inf)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return f"distance-preserving over {self.pairs_checked} pairs"
        worst = max(self.failures,
                    key=lambda f: (f[3] - f[2]) if math.isfinite(f[3])
                    else math.inf)
        return (f"{len(self.failures)}/{self.pairs_checked} pairs broken;"
                f" worst: sp({worst[0]}, {worst[1]}) = {worst[2]:.6g} in G"
                f" but {worst[3]:.6g} in the subgraph")


def _vertex_set(candidate: Union[DPSResult, Iterable[int]]) -> Set[int]:
    if isinstance(candidate, DPSResult):
        return set(candidate.vertices)
    return set(candidate)


def verify_dps(network: RoadNetwork, candidate: Union[DPSResult, Iterable[int]],
               query: DPSQuery,
               max_sources: Optional[int] = None,
               seed: int = 0) -> VerificationReport:
    """Check that ``candidate`` preserves ``dist(s, t)`` for the query.

    Runs one bounded Dijkstra per source in the smaller query side, in the
    full network and in the candidate subgraph, and compares.  With
    ``max_sources`` set, a seeded sample of sources is used (full target
    coverage per sampled source is kept -- failures concentrate on
    specific sources far less than on specific targets).
    """
    vertex_ids = _vertex_set(candidate)
    missing = query.combined - vertex_ids
    if missing:
        return VerificationReport(
            False, 0, [(v, v, 0.0, math.inf) for v in sorted(missing)])
    smaller, larger = query.smaller_side()
    sources: List[int] = sorted(smaller)
    if max_sources is not None and len(sources) > max_sources:
        rng = random.Random(seed)
        sources = sorted(rng.sample(sources, max_sources))
    failures: List[Tuple[int, int, float, float]] = []
    pairs = 0
    targets = sorted(larger)
    for s in sources:
        full = sssp(network, s, targets=targets)
        restricted = sssp(network, s, targets=targets, allowed=vertex_ids)
        for t in targets:
            pairs += 1
            # A pair with no path in G is preserved by every subgraph
            # (inf == inf); read it as inf instead of failing.
            true_dist = full.dist.get(t, math.inf)
            sub_dist = restricted.dist.get(t, math.inf)
            if not math.isclose(true_dist, sub_dist,
                                rel_tol=DIST_REL_TOL, abs_tol=1e-12):
                failures.append((s, t, true_dist, sub_dist))
    return VerificationReport(not failures, pairs, failures)


def pairwise_distances(network: RoadNetwork, sources: Iterable[int],
                       targets: Iterable[int],
                       allowed: Optional[Set[int]] = None,
                       ) -> dict:
    """Return ``{(s, t): dist}`` for ``sources × targets`` (one bounded
    Dijkstra per source), optionally restricted to a vertex subset."""
    target_list = sorted(set(targets))
    out = {}
    for s in sorted(set(sources)):
        tree = sssp(network, s, targets=target_list, allowed=allowed)
        for t in target_list:
            out[(s, t)] = tree.dist.get(t, math.inf)
    return out
