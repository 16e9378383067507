"""Typed failure modes shared across layers.

The query-serving stack distinguishes three ways a query can go wrong,
and each gets its own exception type so callers can react per kind
rather than pattern-match message strings:

- :class:`DeadlineExceeded` -- a cooperative per-query wall-clock budget
  ran out inside an SSSP engine (see
  :mod:`repro.shortestpath.deadline`).  The batched-query driver treats
  this as *degradable*: it retries the query down a fallback cascade of
  cheaper algorithms before reporting a failure.
- :class:`IndexFormatError` -- a RoadPart index file on disk is corrupt,
  stale, or not an index file at all.  Raised by the binary/mmap
  loader in :mod:`repro.core.roadpart.binfmt` with the path and the
  specific defect, instead of leaking a raw ``struct.error`` or
  ``IndexError``.
- :class:`RequestValidationError` -- a serving-daemon request is
  malformed (bad JSON, unknown algorithm, vertex ids outside the
  network).  The daemon maps it to HTTP 400 with a structured error
  body; everything else surfacing from query execution is a 5xx.
- ``repro.serve.faults.InjectedFault`` -- a deterministic test-only
  fault (defined next to the injection hooks, not here, so importing
  the error taxonomy never pulls in the serving layer).

This module sits below every other ``repro`` package and imports
nothing from the project, so any layer may raise or catch these without
cycles.
"""

from __future__ import annotations


class DeadlineExceeded(TimeoutError):
    """A query's wall-clock budget ran out mid-search.

    Raised by the SSSP engines' quantized deadline checks; the search
    that raises it has already restored its scratch-arena invariants (or
    its caller releases the arena on the way out), so catching this and
    answering with a cheaper algorithm is always safe.
    """


class IndexFormatError(ValueError):
    """A RoadPart index file failed validation on load.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the old untyped errors keep working; the message always names the
    offending path and what is wrong with it.
    """


class RequestValidationError(ValueError):
    """A daemon request failed validation before any query ran.

    Raised while decoding ``POST /query`` bodies (not-JSON payloads,
    missing/empty query sets, unknown algorithm or fallback names,
    vertex ids outside the network) so the HTTP layer can answer 400
    and keep 5xx statuses meaning "the query itself failed".
    """
