"""Figure 10: effect of the border-vertex count ℓ on partitioning.

(a) partitioning time vs ℓ, (b) number of regions |R| vs ℓ, on the EAST
stand-in.  The paper's observation -- near-linear growth in ℓ despite
the quadratic worst case, because in-zone BFS dominates A* cut
computation -- is asserted by the benchmark.  The max region size M,
which Section VII-A uses to pick ℓ, is included since the same sweep
produces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bench.metrics import median
from repro.bench.timing import timed
from repro.bench.workloads import FIG10_BORDER_COUNTS, FIG10_DATASET
from repro.bench.experiments.common import dataset_network
from repro.core.roadpart.bridges import find_bridges
from repro.core.roadpart.index import build_index

#: Builds per sweep point; the baseline rows report median + p95 over
#: these, so the schema's no-p95-at-repeats-1 rule is satisfied.
FIG10_REPEATS = 3


@dataclass
class Fig10Point:
    border_count: int
    partition_seconds: float   #: median build time minus the oracle phase
    oracle_seconds: float      #: the ℓ-independent oracle phase (median)
    region_count: int
    max_region_size: int
    #: every repeat, for tail reporting in the JSON baseline.
    partition_samples: List[float] = None
    oracle_samples: List[float] = None


def run_fig10(dataset: str = FIG10_DATASET,
              border_counts: Optional[List[int]] = None,
              repeats: int = FIG10_REPEATS) -> List[Fig10Point]:
    """Sweep ℓ and measure partitioning time, |R| and M.

    Bridges are found once outside the loop: Fig 10 measures
    *partitioning*, and the bridge self-join is ℓ-independent.  The
    build runs with ``oracle="auto"`` -- the production default -- so
    the full cost the shipped index pays is on record, but the oracle
    phase is reported as its own column: it is ℓ-independent too (one
    tree per bridge endpoint), and folding it into the partition
    time would bury the ℓ trend the figure exists to show.

    Builds run with the CLI defaults (flat engine, one process), what
    ``repro build-index`` ships.  Each point is built ``repeats``
    times; the headline numbers are medians.
    """
    counts = border_counts or FIG10_BORDER_COUNTS
    network = dataset_network(dataset)
    bridges = find_bridges(network)
    points: List[Fig10Point] = []
    for count in counts:
        partition_samples: List[float] = []
        oracle_samples: List[float] = []
        index = None
        for _ in range(max(1, repeats)):
            index, seconds = timed(
                lambda c=count: build_index(network, c, bridges=bridges,
                                            oracle="auto"))
            oracle_samples.append(index.stats.oracle_seconds)
            partition_samples.append(seconds - index.stats.oracle_seconds)
        points.append(Fig10Point(count, median(partition_samples),
                                 median(oracle_samples),
                                 index.regions.region_count,
                                 index.regions.max_region_size(),
                                 partition_samples=partition_samples,
                                 oracle_samples=oracle_samples))
    return points
