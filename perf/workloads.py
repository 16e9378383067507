"""Seeded input generation for the four workloads.

Every input is a function of ``--seed`` alone: the same seed gives the
same windows, algorithms and request order, and the program under test
only ever receives the generated request bodies and query sets.

Query windows are the Section VII-B ``εW × εH`` windows of
:func:`repro.datasets.queries.window_query`.  The ε of item ``i``
cycles through the Table II EAST-S sweep, and for each ε the window
centres are *stratified*: the map is cut into a grid with about one
cell per window, and the seed picks the cells and jitters each centre
inside its cell.  Every seed therefore covers the network evenly (its
bridges, holes and borders alike), so per-run statistics such as a
median latency or a mean DPS size vary little from seed to seed, while
the windows themselves differ.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.datasets.queries import window_query

#: Table II's EAST-S Q-DPS sweep (ε as a fraction of the map extent).
EPSILONS = (0.05, 0.10, 0.15, 0.20, 0.25)
#: The batch workload leaves out ε=5%, where BL-Q and the hull are
#: dominated by per-query overhead rather than SSSP work.
BATCH_EPSILONS = (0.10, 0.15, 0.20, 0.25)
#: Skew of the hot workload's popularity distribution.
ZIPF_S = 1.1
#: Re-jitters of one centre before a cell is given up as empty.
_JITTER_ATTEMPTS = 50


@dataclass(frozen=True)
class Window:
    """One generated query window."""

    epsilon: float
    vertices: Tuple[int, ...]


def _stratified(network, rng: random.Random, eps: float, count: int,
                seen: set) -> List[Tuple[int, ...]]:
    """``count`` distinct, non-empty ε-windows with centres in distinct
    cells of a grid over the centres that keep the window on the map."""
    bounds = network.bounds()
    half_w, half_h = eps * bounds.width / 2, eps * bounds.height / 2
    x0, y0 = bounds.xmin + half_w, bounds.ymin + half_h
    span_x = max(bounds.width - 2 * half_w, 0.0)
    span_y = max(bounds.height - 2 * half_h, 0.0)
    side = math.ceil(math.sqrt(count))
    out = []
    for cell in rng.sample(range(side * side), count):
        col, row = cell % side, cell // side
        for _ in range(_JITTER_ATTEMPTS):
            centre = (x0 + (col + rng.random()) * span_x / side,
                      y0 + (row + rng.random()) * span_y / side)
            vertices = tuple(window_query(network, eps, center=centre))
            if vertices and vertices not in seen:
                break
        else:
            raise RuntimeError(f"no new ε={eps} window in grid cell {cell}")
        seen.add(vertices)
        out.append(vertices)
    return out


def distinct_windows(network, stream: str, seed: int, count: int,
                     epsilons: Sequence[float] = EPSILONS,
                     ) -> List[Window]:
    """``count`` windows with pairwise distinct vertex sets; item ``i``
    has ε ``epsilons[i % len(epsilons)]`` and a stratified centre."""
    rng = random.Random(f"{stream}:{seed}")
    seen: set = set()
    per_eps = {eps: iter(_stratified(network, rng, eps,
                                     len(range(k, count, len(epsilons))),
                                     seen))
               for k, eps in enumerate(epsilons)}
    return [Window(eps, next(per_eps[eps]))
            for eps in itertools.islice(itertools.cycle(epsilons), count)]


def request_body(algorithm: str, window: Window) -> bytes:
    """The ``POST /query`` body for one window."""
    return json.dumps({"algorithm": algorithm,
                       "Q": list(window.vertices)}).encode("ascii")


@dataclass
class ServePlan:
    """The request stream of one serving workload.

    ``open_bodies`` is the open-loop stream in dispatch order;
    ``closed_bodies`` is cycled by the closed-loop senders; ``warm``
    bodies are sent once, untimed, before the load starts.  The traced
    run also sends ``solo_spaced`` one at a time with idle gaps and then
    ``solo_back_to_back`` on one connection.  ``answers`` lists the
    distinct (algorithm, window) pairs whose answers define
    ``dps_size_mean``.
    """

    warm: List[bytes]
    open_bodies: List[bytes]
    closed_bodies: List[bytes]
    solo_spaced: List[bytes]
    solo_back_to_back: List[bytes]
    answers: List[Tuple[str, Window]]


def zipf_indices(rng: random.Random, size: int, count: int,
                 s: float = ZIPF_S) -> List[int]:
    """``count`` draws from Zipf(``s``) over ranks ``0..size-1``."""
    cum = list(itertools.accumulate(1.0 / (k + 1) ** s for k in range(size)))
    return rng.choices(range(size), cum_weights=cum, k=count)


def hot_plan(network, seed: int, pool_size: int, open_count: int,
             closed_count: int, solo_count: int) -> ServePlan:
    """RoadPart requests drawn Zipf(1.1) from ``pool_size`` windows.

    The pool fits the daemon's default 256-entry cache and is sent once
    before the load, so the timed requests are cache hits.
    """
    pool = distinct_windows(network, "hot-pool", seed, pool_size)
    bodies = [request_body("roadpart", w) for w in pool]
    draws = zipf_indices(random.Random(f"hot-stream:{seed}"), pool_size,
                         open_count + closed_count)
    return ServePlan(
        warm=bodies,
        open_bodies=[bodies[i] for i in draws[:open_count]],
        closed_bodies=[bodies[i] for i in draws[open_count:]],
        solo_spaced=bodies[:solo_count],
        solo_back_to_back=bodies[:solo_count],
        answers=[("roadpart", w) for w in pool])


def cold_algorithms(seed: int, count: int) -> List[str]:
    """The algorithm of each request: 75% RoadPart, 25% BL-E.

    Request ``i`` has ε ``EPSILONS[i % 5]``; within every run of four
    requests with the same ε, one (chosen by the seed) is BL-E.  So every
    block of twenty requests holds the same (algorithm, ε) mix.
    """
    rng = random.Random(f"cold-mix:{seed}")
    width = len(EPSILONS)
    out: List[str] = []
    while len(out) < count:
        picks = [rng.randrange(4) for _ in range(width)]
        out.extend("ble" if k == picks[i % width] else "roadpart"
                   for k in range(4) for i in range(width))
    return out[:count]


def cold_plan(network, seed: int, open_count: int, closed_pool: int,
              solo_count: int) -> ServePlan:
    """Distinct requests only: 75% RoadPart, 25% BL-E.

    The closed-loop pool is larger than the cache and is cycled in a
    fixed order, so least-recently-used eviction removes every entry
    before it recurs and the hit ratio stays 0.
    """
    total = open_count + closed_pool + 2 * solo_count
    windows = distinct_windows(network, "cold", seed, total)
    algorithms = cold_algorithms(seed, total)
    pairs = list(zip(algorithms, windows))
    bodies = [request_body(a, w) for a, w in pairs]
    solo = open_count + closed_pool
    return ServePlan(
        warm=[],
        open_bodies=bodies[:open_count],
        closed_bodies=bodies[open_count:solo],
        solo_spaced=bodies[solo:solo + solo_count],
        solo_back_to_back=bodies[solo + solo_count:],
        answers=pairs[:open_count])


def batch_plan(network, seed: int, per_epsilon: int,
               ) -> List[Tuple[str, Window]]:
    """BL-Q and ConvexHull on ``per_epsilon`` windows of each batch ε,
    interleaved so that any prefix mixes sizes and algorithms."""
    windows = distinct_windows(network, "batch", seed,
                               per_epsilon * len(BATCH_EPSILONS),
                               epsilons=BATCH_EPSILONS)
    return [(algorithm, w) for w in windows for algorithm in ("blq", "hull")]


def probe_windows(network, seed: int, count: int) -> List[Window]:
    """Windows answered with RoadPart on each built index."""
    return distinct_windows(network, "probe", seed, count)
