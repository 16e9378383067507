"""Fork workers: the one helper behind every process pool in repro.

Five callers spread read-only work over processes: the bridge join
(:mod:`repro.core.roadpart.bridges`), the cut sweep and labelling rounds
(:mod:`repro.core.roadpart.parallel`) and the endpoint tree table rows
(:mod:`repro.shortestpath.oracle`) of the index build, the
batched-query driver (:mod:`repro.serve`) and the SSSP rounds of BL-Q
and the hull (:mod:`repro.shortestpath.settle`).  Their inputs are
large (the network, its CSR arrays, an index) and never written, so the
workers inherit them through ``fork`` copy-on-write instead of having
them pickled: the caller passes them to :func:`fork_pool` as keyword
arguments and a worker reads them back with :func:`inherited`.  Only a
task's arguments and its result cross a pipe.

Whether a pool may fork here at all is decided in one place,
:func:`may_fork`:

- the ``fork`` start method must exist (Linux, macOS);
- the process must not be a worker of another pool: pools never nest,
  so a query answered inside a ``run_queries(jobs=2)`` worker runs its
  rounds serially;
- no other thread may be alive.  ``fork`` copies only the calling
  thread, so a lock that another thread holds at that moment stays held
  in the child forever.  The threaded serving daemon therefore never
  forks, and every pool forks its processes before it starts its own
  manager thread.

The forked SSSP rounds and the index build's phases size their pools
with :func:`pool_size`: a phase forks only when its estimated work
reaches the phase's threshold, more than one CPU is usable and
:func:`may_fork` allows it.

Every pool is a ``ProcessPoolExecutor`` on the fork context, opened and
joined within one ``with`` block: no worker outlives the call that
opened it, whether that call returns or raises.

The executor hands tasks to its workers, and takes their results back,
through a manager thread and a queue feeder thread of its own.  While
the caller computes (the settle rounds run a share of their own), each
of those threads waits for the interpreter lock up to the switch
interval, 5 ms by default, and a worker started its task 10–20 ms late
on EAST-S.  The pool therefore runs with the interval at
:data:`HANDOFF_INTERVAL` and restores it on exit.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: In a worker process: the context its pool was opened with (inherited
#: through the fork, never pickled).  None in every other process.
_CTX: Optional[Dict[str, object]] = None

#: The thread switch interval (seconds) while a pool is open.
HANDOFF_INTERVAL = 2e-4


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """How many CPUs this process may run on: the size of its affinity
    mask (so ``taskset -c 0`` reads 1), or the machine's CPU count on
    platforms without affinity masks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS)
        return os.cpu_count() or 1


def may_fork() -> bool:
    """True when a pool may fork now: ``fork`` exists, this process is
    not itself a pool worker and it runs no other thread."""
    return (_CTX is None and threading.active_count() == 1
            and fork_available())


def pool_size(work: float, threshold: float, tasks: int) -> int:
    """How many processes should share ``tasks`` independent tasks of
    ``work`` estimated units: 1 (the caller's serial loop) unless there
    are two tasks or more, the work reaches ``threshold`` and
    :func:`may_fork` allows it; otherwise the usable CPUs, at most one
    per task (so one usable CPU also reads 1)."""
    if tasks < 2 or work < threshold or not may_fork():
        return 1
    return min(usable_cpus(), tasks)


def inherited() -> Dict[str, object]:
    """The context of the pool this worker belongs to (see
    :func:`fork_pool`); raises RuntimeError outside a worker."""
    if _CTX is None:
        raise RuntimeError("inherited() called outside a fork worker")
    return _CTX


def _enter_worker(context: Dict[str, object]) -> None:
    global _CTX
    _CTX = context


@contextmanager
def fork_pool(workers: int, **context: object
              ) -> Iterator[ProcessPoolExecutor]:
    """A ``ProcessPoolExecutor`` of ``workers`` fork workers, each of
    which sees ``context`` through :func:`inherited`.

    The processes fork at the first ``submit``/``map``, all at once and
    before the executor starts its manager thread.  Leaving the block
    shuts the pool down and joins every worker, on success and on error
    alike.  Callers check :func:`may_fork` first and run serially when
    it refuses; opening a pool where it refuses raises RuntimeError.
    """
    if not may_fork():
        raise RuntimeError("fork_pool() where may_fork() refuses")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(min(interval, HANDOFF_INTERVAL))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_enter_worker, initargs=(context,)) as pool:
            yield pool
    finally:
        sys.setswitchinterval(interval)
