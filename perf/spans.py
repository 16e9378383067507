"""In-memory span recording for the traced run (``--trace 1``).

Spans are recorded by the benchmark around its calls into each layer
and written out once, when the run ends.  Each span has a name, start
and end (seconds on the ``perf_counter`` clock, relative to the
recorder's creation), the id of the span that caused it and the id of
the request it belongs to.  A span's *self time* is its duration minus
the part of its interval that its children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional


class SpanRecorder:
    """Collects spans; ``add`` takes absolute ``perf_counter`` times."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            request: Optional[int] = None) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name,
                           "start": start - self.origin,
                           "end": end - self.origin,
                           "parent": parent, "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[int] = None) -> Iterator[int]:
        """Time the ``with`` body; yields the span id for children."""
        span_id = self.add(name, 0.0, 0.0, parent, request)
        record = self.spans[span_id]
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            record["start"] = start - self.origin
            record["end"] = time.perf_counter() - self.origin

    def add_sequence(self, durations: Mapping[str, float], prefix: str,
                     start: float, parent: int,
                     request: Optional[int] = None) -> None:
        """Lay phase ``durations`` (seconds) end to end from ``start``
        as children of ``parent``: the library reports phase durations
        only, so their order and offsets are reconstructed."""
        at = start
        for label, seconds in durations.items():
            self.add(f"{prefix}.{label}", at, at + seconds, parent, request)
            at += seconds

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        children: Dict[int, List[Dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = []
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for child in sorted(children.get(span["id"], ()),
                                key=lambda c: c["start"]):
                lo = max(child["start"], reach)
                hi = min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span["end"] - span["start"] - covered)
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self milliseconds, median."""
        selfs = self.self_times()
        groups: Dict[str, List[int]] = {}
        for span in self.spans:
            groups.setdefault(span["name"], []).append(span["id"])
        out = {}
        for name, ids in sorted(groups.items()):
            durs = [self.spans[i]["end"] - self.spans[i]["start"]
                    for i in ids]
            out[name] = {
                "count": len(ids),
                "total_ms": 1000.0 * sum(durs),
                "self_ms": 1000.0 * sum(selfs[i] for i in ids),
                "median_ms": 1000.0 * statistics.median(durs),
            }
        return out

    def write(self, path: str, **meta) -> None:
        payload = dict(meta)
        payload["summary"] = self.summary()
        payload["spans"] = self.spans
        with open(path, "w", encoding="ascii") as stream:
            json.dump(payload, stream)
