"""Statistics, memory probes and run provenance shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
from typing import Dict, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (so p99 needs 1000 samples and p90 needs 100).
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``.

    The median is always available; a tail percentile (``q > 50``) is
    refused with :class:`ValueError` unless at least
    :data:`TAIL_MIN_BEYOND` samples lie beyond it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if q > 50 and n * (100.0 - q) / 100.0 < TAIL_MIN_BEYOND:
        need = math.ceil(TAIL_MIN_BEYOND * 100.0 / (100.0 - q))
        raise ValueError(f"p{q:g} needs at least {need} samples, got {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """``{"p90": ..., "p99": ...}`` for the tails the sample supports."""
    out = {}
    for q in (90, 99):
        try:
            out[f"p{q}"] = percentile(values, q)
        except ValueError:
            pass
    return out


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sample (a layer not exercised)."""
    return statistics.fmean(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a layer not exercised)."""
    return statistics.median(values) if values else 0.0


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)
    in MiB, read from ``/proc``."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{path} has no VmHWM line")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest(src_dir: str) -> str:
    """Digest of every ``.py`` file under ``src_dir``: keys the on-disk
    cache of generated inputs, so edited sources never reuse them."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


def git_head(root: str) -> Optional[str]:
    """``git rev-parse HEAD`` of ``root``, or None outside a git
    checkout (git is kept from searching above ``root``)."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, seed: int, load_at_start: Sequence[float],
               engine: str, oracle_kind: Optional[str]) -> Dict:
    """What ran: commit, interpreter, array backend, engine, oracle."""
    from repro.vec.backend import backend_name
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_head": git_head(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vec_backend": backend_name(),
        "engine": engine,
        "oracle_kind": oracle_kind,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "seed": seed,
    }
