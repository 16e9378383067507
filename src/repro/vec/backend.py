"""The array backend this install runs on: none.

Every kernel is pure stdlib, so :func:`backend_name` is a constant.  It
stays because the benchmark's provenance block (``perf/measure.py``)
still records it.
"""


def backend_name() -> str:
    """Always ``"none"``: no kernel runs on an array backend."""
    return "none"
