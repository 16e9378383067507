"""Oracle label-sweep microbenchmark: dict scratch vs vectorized scratch.

Once RoadPart carries a hub-label oracle, the per-query cost of bridge
classification is the *label sweep*: build one
:class:`~repro.shortestpath.oracle.OracleScratch` over the query
vertices, then intersect the two endpoint label sets of every examined
bridge (min-plus over the shared hubs).  This experiment times that
exact workload twice over the Table II EAST-S ε sweep:

- ``dict``: the reference ``_HubScratch`` -- pure-Python loops over the
  per-vertex label dicts;
- ``vec``: :class:`~repro.shortestpath.vec.VecHubScratch` -- the query
  bucket flattened once into ``(hub_offsets, target_ids, target_dists)``
  arrays, each endpoint sweep a single ``np.minimum.reduceat``
  min-plus reduction.

Each pass allocates a fresh scratch (exactly what a real query pays --
the bucket inversion/flattening is part of the cost) and classifies
every examined bridge via :meth:`OracleScratch.domains`.  Warm-up
passes cross-check the two scratches bridge by bridge
(``bridge_valid`` and the full ``(UD*, VD*)`` sets) before anything is
timed, and the timed repeats are interleaved (dict, vec, dict, vec,
...) so machine-load drift cancels out of the speedup ratio.

``python -m repro.bench sweep --check`` fails (exit 1) when the
vectorized sweep is below :data:`SWEEP_CHECK_RATIO` x the dict scratch,
aggregated over the ε sweep -- the CI perf gate companion to ``bench
bridges --check``.  Without an array backend (numpy not installed or
``REPRO_VEC_DISABLE`` set) the experiment *skips* rather than fails:
the vec path is an optional extra, not a requirement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.experiments.common import dataset_index, dataset_network
from repro.bench.metrics import median
from repro.bench.workloads import QDPSPoint
from repro.core.dps import DPSQuery
from repro.core.roadpart.query import RoadPartQueryProcessor
from repro.datasets.queries import window_query
from repro.vec.backend import has_backend

#: Table II-scale stand-in whose oracle sweep workload is measured.
SWEEP_DATASET = "EAST-S"
#: The EAST-S ε sweep endpoints + midpoint: small, medium and large
#: query buckets, so the ratio covers the bucket sizes a real mix sees.
SWEEP_EPSILONS = (0.05, 0.15, 0.25)
SWEEP_REPEATS = 5
#: The ``--check`` gate: the vectorized sweep must be at least this
#: factor faster than the dict scratch, aggregated over the ε sweep.
SWEEP_CHECK_RATIO = 2.0


@dataclass
class SweepMeasure:
    """One scratch implementation's timings at one ε."""

    dataset: str
    scratch: str           #: "dict" or "vec"
    epsilon: float
    bridges: int           #: examined bridges classified per pass
    targets: int           #: query vertices in the scratch bucket
    seconds: float         #: median over the repeats
    samples: List[float] = field(default_factory=list)

    @property
    def sweeps_per_second(self) -> float:
        return self.bridges / self.seconds


def _workload(network, index, epsilon: float):
    """The deterministic (query vertices, examined bridges, weights)
    workload for one ε: the standard Table II window and whatever
    bridges the default query processor examines for it."""
    point = QDPSPoint(SWEEP_DATASET, epsilon)
    query = DPSQuery.q_query(window_query(network, epsilon,
                                          seed=point.seed))
    processor = RoadPartQueryProcessor(index)
    examined = processor.examined_bridges(query)
    if not examined:
        examined = sorted(index.bridges)
    oracle = index.oracle
    examined = [(u, v) for u, v in examined if oracle.covers(u, v)]
    weights = {(u, v): network.edge_weight(u, v) for u, v in examined}
    return sorted(query.combined), examined, weights


def run_sweep(dataset: str = SWEEP_DATASET,
              epsilons: Optional[Sequence[float]] = None,
              repeats: int = SWEEP_REPEATS) -> List[SweepMeasure]:
    """Time the oracle label sweep with both scratches, interleaved.

    Raises RuntimeError when no array backend is active (callers that
    want a soft skip should test
    :func:`repro.vec.backend.has_backend` first) or when the dataset's
    index carries no hub oracle.
    """
    if not has_backend():
        raise RuntimeError(
            "bench sweep needs the numpy backend (install the 'vec'"
            " extra or unset REPRO_VEC_DISABLE)")
    # The reference and vectorized scratches are constructed directly --
    # HubOracle.scratch() would hand every caller the vec one once the
    # backend is active, which is exactly the dispatch this experiment
    # exists to justify.
    from repro.shortestpath.oracle import _HubScratch
    from repro.shortestpath.vec import VecHubScratch

    network = dataset_network(dataset)
    index = dataset_index(dataset)
    oracle = index.oracle
    if oracle is None:
        raise RuntimeError(
            f"bench sweep needs a hub-label oracle; the {dataset} index"
            f" carries none")
    if epsilons is None:
        epsilons = SWEEP_EPSILONS
    network.csr()  # built once and cached: not timed

    measures: List[SweepMeasure] = []
    for epsilon in epsilons:
        q_vertices, examined, weights = _workload(network, index, epsilon)

        def one_pass(kind: str) -> None:
            # A fresh scratch per pass, like a fresh query: bucket
            # inversion (dict) / flattening (vec) is part of the cost.
            cls = VecHubScratch if kind == "vec" else _HubScratch
            scratch = cls(oracle, q_vertices)
            for u, v in examined:
                scratch.domains(u, v, weights[(u, v)])

        # Warm-up doubles as the correctness cross-check: the two
        # scratches must agree on validity and the full domain sets for
        # every bridge, or the speedup is meaningless.
        ref = _HubScratch(oracle, q_vertices)
        vec = VecHubScratch(oracle, q_vertices)
        for u, v in examined:
            w = weights[(u, v)]
            if ref.bridge_valid(u, v, w) != vec.bridge_valid(u, v, w):
                raise AssertionError(
                    f"scratches disagree on bridge validity ({u}, {v})")
            expected = ref.domains(u, v, w)
            got = vec.domains(u, v, w)
            if got != expected:
                raise AssertionError(
                    f"scratches disagree on bridge ({u}, {v}):"
                    f" vec={got} dict={expected}")

        samples = {"dict": [], "vec": []}
        # Interleaved repeats: load drift hits both scratches equally.
        for _ in range(repeats):
            for kind in ("dict", "vec"):
                start = time.perf_counter()
                one_pass(kind)
                samples[kind].append(time.perf_counter() - start)
        for kind in ("dict", "vec"):
            measures.append(SweepMeasure(dataset, kind, epsilon,
                                         len(examined), len(q_vertices),
                                         median(samples[kind]),
                                         samples[kind]))
    return measures


def speedup(measures: List[SweepMeasure]) -> float:
    """Aggregate dict seconds / vec seconds over the ε sweep (>1 means
    the vectorized sweep wins)."""
    dict_total = sum(m.seconds for m in measures if m.scratch == "dict")
    vec_total = sum(m.seconds for m in measures if m.scratch == "vec")
    return dict_total / vec_total
