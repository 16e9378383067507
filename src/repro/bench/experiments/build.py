"""Oracle *construction* microbenchmark: endpoint tree table vs PLL.

An ``--oracle auto`` index build spends its oracle phase on the
endpoint tree table (:mod:`repro.shortestpath.oracle`): one full flat
Dijkstra per bridge endpoint.  It replaced a partial pruned landmark
labelling over the same endpoints, which dominated the build.  This
experiment times both over the same network and the same endpoints:

- ``table``: :meth:`~repro.shortestpath.oracle.HubOracle.build`, what
  ``build_index`` runs, on every usable CPU (its rows fork once they
  add up to :data:`~repro.shortestpath.oracle.FORK_ROW_SETTLES`
  settles; ``taskset -c 0`` times it on one);
- ``pll``: the scalar
  :class:`~repro.shortestpath.hub_labels.HubLabelIndex` with the
  endpoints as its hubs, by descending degree -- one pruned Dijkstra
  per hub, serially.

A warm-up builds both once and doubles as a correctness cross-check:
on a fixed sample of ``(vertex, endpoint)`` pairs the labelling's
distance must equal the table's ``dist`` cell (both are exact for
every pair with an endpoint).  Timed repeats are interleaved (table,
pll, table, pll, ...) so machine-load drift cancels out of the ratio.

``python -m repro.bench build --check`` fails (exit 1) when the table
build is below :data:`BUILD_CHECK_RATIO` x faster than the labelling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List

from repro.bench.experiments.common import dataset_network
from repro.bench.metrics import median
from repro.core.roadpart.bridges import find_bridges
from repro.shortestpath.hub_labels import HubLabelIndex
from repro.shortestpath.oracle import HubOracle

#: Table II-scale stand-in whose oracle construction is measured.
BUILD_DATASET = "EAST-S"
BUILD_REPEATS = 3
#: The ``--check`` gate: the table build must be at least this factor
#: faster than the pruned labelling over the same endpoints.
BUILD_CHECK_RATIO = 2.0
#: ``(vertex, endpoint)`` pairs the warm-up cross-checks.
CROSS_CHECK_PAIRS = 400


@dataclass
class BuildMeasure:
    """One builder's timings over the repeats."""

    dataset: str
    builder: str           #: "table" or "pll"
    endpoints: int         #: distinct bridge endpoints processed
    entries: int           #: table cells or label entries built
    seconds: float         #: median over the repeats
    samples: List[float] = field(default_factory=list)

    @property
    def entries_per_second(self) -> float:
        return self.entries / self.seconds


def run_build(dataset: str = BUILD_DATASET,
              repeats: int = BUILD_REPEATS) -> List[BuildMeasure]:
    """Time the table and the labelling over the same endpoints,
    interleaved; raises RuntimeError when the dataset has no bridges."""
    network = dataset_network(dataset)
    bridges = sorted(find_bridges(network))
    if not bridges:
        raise RuntimeError(
            f"bench build needs bridges; {dataset} has none")
    endpoints = sorted({e for bridge in bridges for e in bridge})
    by_degree = sorted(endpoints, key=lambda v: (-network.degree(v), v))
    # Built once and cached: the CSR is shared build infrastructure,
    # not part of either builder's cost.
    network.csr()

    def one_build(kind: str):
        if kind == "table":
            return HubOracle.build(network, bridges)
        return HubLabelIndex(network, hubs=by_degree)

    table = one_build("table")
    labels = one_build("pll")
    n = network.num_vertices
    step = max(1, (n * len(endpoints)) // CROSS_CHECK_PAIRS)
    for k in range(0, n * len(endpoints), step):
        endpoint, x = endpoints[k // n], k % n
        want = table.dist_row(endpoint)[x]
        got = labels.distance(x, endpoint)
        if not math.isclose(got, want, rel_tol=1e-9):
            raise AssertionError(
                f"labelling and table disagree on ({x}, {endpoint}):"
                f" {got} vs {want}")
    entries = {"table": table.entry_count(),
               "pll": labels.total_label_entries()}

    samples = {"table": [], "pll": []}
    # Interleaved repeats: load drift hits both builders equally.
    for _ in range(repeats):
        for kind in ("table", "pll"):
            start = time.perf_counter()
            one_build(kind)
            samples[kind].append(time.perf_counter() - start)
    return [BuildMeasure(dataset, kind, len(endpoints), entries[kind],
                         median(samples[kind]), samples[kind])
            for kind in ("table", "pll")]


def speedup(measures: List[BuildMeasure]) -> float:
    """pll seconds / table seconds (>1 means the table builds faster)."""
    by_builder = {m.builder: m for m in measures}
    return by_builder["pll"].seconds / by_builder["table"].seconds
