"""End-to-end and per-layer benchmark of the DPS query system.

Run ``python perf/run.py --help``; workloads, metrics and the layer map
are described in ``perf/README.md``.
"""
