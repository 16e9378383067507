"""Forked RoadPart labelling: the cut sweep and the labelling rounds.

The ``ℓ`` labelling rounds of the index build are embarrassingly
parallel once their one shared *mutable* input -- the cut cache -- is
filled: a round only reads the network, the contour and the cuts.
:func:`run_labeling` runs the serial loop unless
:func:`repro.forkpool.pool_size` grants more than one process for the
work (``rounds × |V|`` against :data:`FORK_LABEL_WORK`: fork exists, no
other thread is alive, not inside a pool worker, two usable CPUs or
more).  A forked labelling runs two fork-based phases:

A. **cuts** -- the border-pair shortest paths (``ℓ(ℓ-1)/2`` of them)
   are computed across workers, each pair in the canonical
   ``(min, max)`` orientation the serial :class:`CutCache` uses, then
   merged into the parent's cache.  The merge is order-independent: a
   keyed dict fill plus two counter sums.
B. **rounds** -- each labelling round runs in a worker against the
   pre-filled cache (inherited copy-on-write by a *second* executor,
   forked after the merge) and ships back its labels, stats and trace
   spans; the parent applies the rounds strictly in round order.

Because the cut paths are identical to the serial ones (same A*, same
orientation, same skeleton-with-fallback policy) and rounds are applied
in order, the built index is **byte-identical** to a serial build, with
the same ``astar_expanded``/``fallback_cuts`` counts -- pinned by
``tests/core/roadpart/test_parallel_build.py``.

Workers inherit their input through ``fork`` copy-on-write, as the
context of a :func:`repro.forkpool.fork_pool` (no per-task pickling of
the network).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.core.roadpart.contour import Contour
from repro.core.roadpart.labeling import (
    CutCache,
    Label,
    RoundStats,
    label_round,
)
from repro.forkpool import fork_available  # noqa: F401 (re-exported)
from repro.forkpool import fork_pool, inherited, pool_size
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder

#: Labelling work, rounds × |V|, before the cut sweep and the rounds
#: fork (:func:`run_labeling`).  Measured on grids of 840–3,600 vertices
#: with two CPUs: a unit costs 2.7–4.5 µs serially, and the two pools of
#: a forked labelling cost about 35 ms more than half the serial rounds,
#: so forking pays from about 2 × 35 ms / 3.4 µs ≈ 21,000 units.  It
#: measured 0.83–0.94× at 13,440–21,600 units and 1.14× at 28,800;
#: EAST-S (12 rounds × 12,099 vertices) forks at 1.59×.
FORK_LABEL_WORK = 25_000


def _cut_keys(border_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """Every canonical cache key the ``ℓ`` rounds will request."""
    keys = set()
    for i, b in enumerate(border_ids):
        for j, c in enumerate(border_ids):
            if i != j:
                keys.add((b, c) if b < c else (c, b))
    return sorted(keys)


def _compute_cuts_worker(chunk: List[Tuple[int, int]]):
    """Phase A: compute one chunk of cut keys; returns
    ``(key, path, astar_expanded, fallback_cuts)`` per key."""
    cache: CutCache = inherited()["cuts"]  # type: ignore[assignment]
    out = []
    for key in chunk:
        before_e = cache.astar_expanded
        before_f = cache.fallback_cuts
        path = cache.path(key[0], key[1])  # canonical orientation
        out.append((key, path, cache.astar_expanded - before_e,
                    cache.fallback_cuts - before_f))
    return out


def _label_round_worker(round_index: int):
    """Phase B: run one labelling round against the pre-filled cache."""
    context = inherited()
    recorder = TraceRecorder()
    with recorder.span(f"round-{round_index}"):
        labels, stats = label_round(
            context["network"], context["contour"],  # type: ignore[arg-type]
            context["border_positions"], round_index,  # type: ignore
            context["bridges"], context["cuts"],  # type: ignore[arg-type]
            trace=recorder)
    return round_index, labels, stats, recorder.root.children


def run_labeling(network: RoadNetwork, contour: Contour,
                 border_positions: Sequence[int],
                 bridge_set: Set[Tuple[int, int]], cuts: CutCache,
                 trace: TraceRecorder,
                 ) -> Tuple[List[Tuple[List[Label], RoundStats]], int]:
    """Run every labelling round; returns the per-round ``(labels,
    stats)`` in round order and how many processes ran them.

    The rounds fork when :func:`~repro.forkpool.pool_size` grants more
    than one process for ``rounds × |V|`` (see
    :data:`FORK_LABEL_WORK`); otherwise the serial loop runs, with one
    ``round-<i>`` span per round under the active span of ``trace``.
    """
    count = len(border_positions)
    processes = pool_size(count * network.num_vertices, FORK_LABEL_WORK,
                          count)
    if processes > 1:
        return _forked_labeling(network, contour, border_positions,
                                bridge_set, cuts, processes,
                                trace), processes
    rounds = []
    for round_index in range(count):
        with trace.span(f"round-{round_index}"):
            rounds.append(label_round(network, contour, border_positions,
                                      round_index, bridge_set, cuts,
                                      trace=trace))
    return rounds, 1


def _forked_labeling(network: RoadNetwork, contour: Contour,
                     border_positions: Sequence[int],
                     bridge_set: Set[Tuple[int, int]],
                     cuts: CutCache, processes: int,
                     trace: TraceRecorder,
                     ) -> List[Tuple[List[Label], RoundStats]]:
    """Fill ``cuts`` and run every labelling round across
    ``processes`` fork workers; returns the per-round ``(labels,
    stats)`` in round order.

    The rounds' worker-recorded trace spans are attached under the
    active span of ``trace`` in round order, so the span tree matches a
    serial build's ``round-<i>`` children (phase A adds one extra
    parent-level ``cuts`` span for the up-front cut sweep).
    """
    border_ids = [contour.vertex_ids[pos] for pos in border_positions]
    cuts.prewarm_for_fork()
    context = {"network": network, "contour": contour,
               "border_positions": list(border_positions),
               "bridges": bridge_set, "cuts": cuts}
    keys = _cut_keys(border_ids)
    chunks = [c for c in (keys[i::processes] for i in range(processes))
              if c]
    with trace.span("cuts"):
        with fork_pool(processes, **context) as pool:
            for result in pool.map(_compute_cuts_worker, chunks):
                for key, path, expanded, fallbacks in result:
                    cuts.preload(key, path, expanded, fallbacks)
    # Second pool: phase-B workers must fork *after* the merge so they
    # inherit the filled cache.
    rounds: List = [None] * len(border_positions)
    with fork_pool(processes, **context) as pool:
        for round_index, labels, stats, spans in pool.map(
                _label_round_worker, range(len(border_positions))):
            rounds[round_index] = (labels, stats)
            for span_ in spans:
                trace.attach(span_)
    return rounds
