"""Oracle *construction* microbenchmark: scalar vs batched PLL builder.

The query-side sweep bench (:mod:`repro.bench.experiments.sweep`)
gates the vectorized label *reads*; this experiment gates the build
side -- the partial-PLL construction over the bridge endpoints that
dominates ``--oracle auto`` index builds (fig10 records it at ~10s per
row on EAST-S against a sub-2s partition build).  It times
:meth:`~repro.shortestpath.oracle.HubOracle.build` twice over the same
network and bridge set:

- ``scalar``: the reference heap-based
  :class:`~repro.shortestpath.hub_labels.HubLabelIndex` builder, one
  pruned Dijkstra per hub;
- ``vec``: :class:`~repro.shortestpath.vec.VecHubLabeler` via
  ``engine="numpy"`` -- each hub's pruned sweep a bucketed frontier
  pass with bulk prune evaluation against the committed label arrays.

A warm-up pass builds both once and doubles as the correctness
cross-check: the two oracles' ``to_payload()`` documents must be
*equal* (same hubs, same offsets, same label entries bit for bit --
the byte-identity contract of the vectorized builder) before anything
is timed.  Timed repeats are interleaved (scalar, vec, scalar, vec,
...) so machine-load drift cancels out of the ratio.

``python -m repro.bench build --check`` fails (exit 1) when the
batched builder is below :data:`BUILD_CHECK_RATIO` x the scalar one.
Without an array backend (numpy not installed or ``REPRO_VEC_DISABLE``
set) the experiment *skips* rather than fails: the vec path is an
optional extra, not a requirement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.bench.experiments.common import dataset_network
from repro.bench.metrics import median
from repro.core.roadpart.bridges import find_bridges
from repro.vec.backend import has_backend

#: Table II-scale stand-in whose oracle construction is measured.
BUILD_DATASET = "EAST-S"
BUILD_REPEATS = 3
#: The ``--check`` gate: the batched PLL builder must be at least this
#: factor faster than the scalar builder.
BUILD_CHECK_RATIO = 2.0


@dataclass
class BuildMeasure:
    """One builder's timings over the repeats."""

    dataset: str
    builder: str           #: "scalar" or "vec"
    hubs: int              #: distinct bridge endpoints processed
    entries: int           #: label entries the build committed
    seconds: float         #: median over the repeats
    samples: List[float] = field(default_factory=list)

    @property
    def entries_per_second(self) -> float:
        return self.entries / self.seconds


def run_build(dataset: str = BUILD_DATASET,
              repeats: int = BUILD_REPEATS) -> List[BuildMeasure]:
    """Time the hub-oracle construction with both builders, interleaved.

    Raises RuntimeError when no array backend is active (callers that
    want a soft skip should test
    :func:`repro.vec.backend.has_backend` first) or when the dataset
    has no bridges to build an oracle over.
    """
    if not has_backend():
        raise RuntimeError(
            "bench build needs the numpy backend (install the 'vec'"
            " extra or unset REPRO_VEC_DISABLE)")
    from repro.shortestpath.oracle import HubOracle

    network = dataset_network(dataset)
    bridges = sorted(find_bridges(network))
    if not bridges:
        raise RuntimeError(
            f"bench build needs bridges; {dataset} has none")
    hubs = {e for bridge in bridges for e in bridge}
    # Built once and cached, inherited by every build below: the CSR
    # (and its array views) are shared build infrastructure, not part
    # of either builder's cost.
    network.csr().vec_views()

    def one_build(kind: str) -> HubOracle:
        engine = "numpy" if kind == "vec" else "flat"
        return HubOracle.build(network, bridges, engine=engine)

    # Warm-up doubles as the byte-identity cross-check: the batched
    # builder must reproduce the scalar labels exactly, or the speedup
    # is meaningless.
    ref = one_build("scalar")
    vec = one_build("vec")
    if vec.to_payload() != ref.to_payload():
        raise AssertionError(
            "batched PLL builder disagrees with the scalar builder"
            " (payloads differ)")
    entries = ref.entry_count()

    samples = {"scalar": [], "vec": []}
    # Interleaved repeats: load drift hits both builders equally.
    for _ in range(repeats):
        for kind in ("scalar", "vec"):
            start = time.perf_counter()
            one_build(kind)
            samples[kind].append(time.perf_counter() - start)
    return [BuildMeasure(dataset, kind, len(hubs), entries,
                         median(samples[kind]), samples[kind])
            for kind in ("scalar", "vec")]


def speedup(measures: List[BuildMeasure]) -> float:
    """scalar seconds / vec seconds (>1 means the batched builder
    wins)."""
    scalar = sum(m.seconds for m in measures if m.builder == "scalar")
    vec = sum(m.seconds for m in measures if m.builder == "vec")
    return scalar / vec
