"""Text exposition of counters: the ``/metrics`` rendering layer.

The serving daemon exposes its state in the Prometheus text format
(one ``name{labels} value`` sample per line, ``# TYPE`` comments),
because every scraper, ``grep`` and human already reads it -- but the
rendering is plain string assembly with no client library, in keeping
with the repo's stdlib-only rule.

This module is deliberately dumb: it formats samples it is handed and
computes percentiles; *what* to expose is the daemon's decision (see
:mod:`repro.serve.daemon` and docs/observability.md for the exposition
contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]
#: One sample: (metric name, optional label dict, value).
Sample = Tuple[str, Optional[Dict[str, str]], Number]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default ("linear") method so bench
    numbers stay comparable if a numpy analysis ever reads them.
    Raises on an empty input -- callers decide what an absent latency
    distribution means.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # bool is an int; forbid the footgun
        raise TypeError("metric values must be numbers, not bool")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_metrics(samples: Sequence[Sample],
                   types: Optional[Dict[str, str]] = None) -> str:
    """Render samples as Prometheus exposition text.

    ``types`` maps metric family names to
    ``counter``/``gauge``/``summary``/``histogram``; a ``# TYPE`` line
    is emitted before a family's first sample, where a sample named
    ``<family>_bucket``, ``_sum`` or ``_count`` belongs to its
    family.  The output ends with a newline (scrapers require it).
    """
    types = types or {}
    lines: List[str] = []
    announced = set()
    for name, labels, value in samples:
        family = name
        if family not in types:
            stem, _, suffix = name.rpartition("_")
            if suffix in ("bucket", "sum", "count"):
                family = stem
        if family not in announced and family in types:
            lines.append(f"# TYPE {family} {types[family]}")
            announced.add(family)
        lines.append(f"{name}{_format_labels(labels)}"
                     f" {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> Dict[str, float]:
    """Parse exposition text back to ``{'name{labels}': value}``.

    The inverse of :func:`render_metrics` for the cross-check in
    ``bench throughput --arrival-rate`` (the bench asserts the daemon's
    counters match its own request tallies) and for tests.  Comment and
    blank lines are skipped; the label block, when present, stays part
    of the key verbatim.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        out[key] = float(raw)
    return out
