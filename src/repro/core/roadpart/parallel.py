"""Parallel RoadPart index build (fork-based labelling rounds).

The ``ℓ`` labelling rounds of the index build are embarrassingly
parallel once their one shared *mutable* input -- the cut cache -- is
filled: a round only reads the network, the contour and the cuts.  The
build therefore splits into two fork-based phases:

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
in order, the built index is **byte-identical** to a serial build --
pinned by ``tests/core/roadpart/test_parallel_build.py``.

Workers inherit their input through ``fork`` copy-on-write, as the
context of a :func:`repro.forkpool.fork_pool` (no per-task pickling of
the network); where :func:`repro.forkpool.may_fork` refuses, the caller
runs the serial loop instead.
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
from repro.forkpool import fork_pool, inherited
from repro.graph.network import RoadNetwork
from repro.obs.trace import TraceRecorder


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


def run_parallel_labeling(network: RoadNetwork, contour: Contour,
                          border_positions: Sequence[int],
                          bridge_set: Set[Tuple[int, int]],
                          cuts: CutCache, jobs: int,
                          trace: TraceRecorder,
                          ) -> List[Tuple[List[Label], RoundStats]]:
    """Fill ``cuts`` and run every labelling round across ``jobs`` fork
    workers; returns the per-round ``(labels, stats)`` in round order.

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
    chunks = [c for c in (keys[i::jobs] for i in range(jobs)) if c]
    with trace.span("cuts"):
        with fork_pool(jobs, **context) as pool:
            for result in pool.map(_compute_cuts_worker, chunks):
                for key, path, expanded, fallbacks in result:
                    cuts.preload(key, path, expanded, fallbacks)
    # Second pool: phase-B workers must fork *after* the merge so they
    # inherit the filled cache.
    rounds: List = [None] * len(border_positions)
    with fork_pool(jobs, **context) as pool:
        for round_index, labels, stats, spans in pool.map(
                _label_round_worker, range(len(border_positions))):
            rounds[round_index] = (labels, stats)
            for span_ in spans:
                trace.attach(span_)
    return rounds
