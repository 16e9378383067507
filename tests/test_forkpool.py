"""Tests for :mod:`repro.forkpool`, the one fork helper.

The callers' own suites pin their answers when they fork; these pin
the helper's guards (one thread, no nesting, the affinity mask), the
inherited context and its clean-up, :func:`pool_size`, and that a
caller that would fork falls back to its serial loop, with the same
bytes, when another thread is alive.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core.dps import DPSQuery
from repro.core.roadpart.index import build_index
from repro.datasets.queries import window_query
from repro.datasets.synthetic import add_bridges, grid_network
from repro import forkpool
from repro.forkpool import (fork_available, fork_pool, inherited, may_fork,
                            pool_size, usable_cpus)
from repro.obs.trace import TraceRecorder
from repro.serve import run_queries

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform")


@contextmanager
def another_thread():
    """A second thread, alive for the duration of the block."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _probe(key):
    return inherited()[key], may_fork()


def test_usable_cpus_reads_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    assert usable_cpus() >= 1


def test_inherited_outside_a_worker_raises():
    with pytest.raises(RuntimeError, match="outside a fork worker"):
        inherited()


@needs_fork
class TestPool:

    def test_may_fork_needs_a_single_thread(self):
        assert may_fork()
        with another_thread():
            assert not may_fork()
        assert may_fork()

    def test_workers_see_the_context_and_never_nest(self):
        interval = sys.getswitchinterval()
        payload = {"rows": list(range(1000))}
        with fork_pool(2, payload=payload) as pool:
            seen = list(pool.map(_probe, ["payload"] * 4))
        # Every worker read the caller's object and refuses to fork.
        assert seen == [(payload, False)] * 4
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1
        assert sys.getswitchinterval() == interval
        assert may_fork()

    def test_a_raising_block_still_joins_its_workers(self):
        with pytest.raises(KeyError):
            with fork_pool(1, payload=1) as pool:
                assert pool.submit(_probe, "payload").result() == (1, False)
                raise KeyError("boom")
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    def test_pool_size_needs_work_tasks_cpus_and_one_thread(
            self, monkeypatch):
        monkeypatch.setattr(forkpool, "usable_cpus", lambda: 4)
        assert pool_size(100, 100, 8) == 4
        assert pool_size(100, 100, 3) == 3
        assert pool_size(99, 100, 8) == 1
        assert pool_size(100, 0, 1) == 1
        with another_thread():
            assert pool_size(100, 0, 8) == 1
        monkeypatch.setattr(forkpool, "usable_cpus", lambda: 1)
        assert pool_size(100, 0, 8) == 1

    def test_a_pool_refuses_to_open_beside_another_thread(self):
        with another_thread():
            with pytest.raises(RuntimeError, match="may_fork"):
                with fork_pool(1):
                    pass
        assert multiprocessing.active_children() == []


@needs_fork
class TestJobsCallersUnderAThread:
    """A forking caller with another thread alive runs the serial
    loop: an index build forced to fork, ``run_queries(jobs=2)``."""

    @pytest.fixture(scope="class")
    def network(self):
        base = grid_network(14, 13, seed=31)
        return add_bridges(base, 4, (2.0, 5.0), seed=32)[0]

    def test_build_index_builds_serially_with_the_same_bytes(
            self, network, tmp_path, force_build_forks):
        serial = build_index(network, border_count=5, oracle="auto")
        force_build_forks(2)
        forked = build_index(network, border_count=5, oracle="auto")
        assert forked.stats.workers >= 2
        trace = TraceRecorder()
        with another_thread():
            guarded = build_index(network, border_count=5, oracle="auto",
                                  trace=trace)
        assert guarded.stats.workers == 1
        # A forked build adds a parent-level "cuts" span.
        labeling = trace.find("labeling")
        assert [c.label for c in labeling.children] \
            == [f"round-{i}" for i in range(5)]
        for name, index in (("serial", serial), ("guarded", guarded),
                            ("forked", forked)):
            index.save_binary(tmp_path / f"{name}.rpix")
        assert ((tmp_path / "serial.rpix").read_bytes()
                == (tmp_path / "guarded.rpix").read_bytes()
                == (tmp_path / "forked.rpix").read_bytes())
        assert guarded.oracle is not None

    def test_run_queries_answers_serially(self, network):
        queries = [DPSQuery.q_query(window_query(network, 0.3, seed=s))
                   for s in (1, 2)]
        serial = run_queries("blq", queries, network=network)
        with another_thread():
            guarded = run_queries("blq", queries, network=network, jobs=2)
        assert guarded.effective_jobs == 1
        assert ([json.dumps(sorted(r.vertices)) for r in guarded.results]
                == [json.dumps(sorted(r.vertices)) for r in serial.results])
