"""Array-backend probe for the vectorized engine.

The vectorized kernels of :mod:`repro.shortestpath.vec` run on any
module exposing the small numpy surface they use (``frombuffer``,
``minimum.reduceat``, boolean masking, ...).  Today that backend is
numpy; the probe is the seam where a CuPy (or other array-API) module
would drop in later -- which is why callers ask :func:`xp` for *the
module* instead of importing numpy themselves.

numpy is a **soft dependency** (``pip install repro[vec]``): nothing in
the package imports it at module-import time, and every consumer
degrades gracefully when :func:`has_backend` is false -- the engine
registry resolves ``engine="numpy"`` to ``"flat"`` (with the one-line
:func:`notice_fallback` on stderr, once per process).  The pure-stdlib
install therefore works end to end, byte-identically.

Set ``REPRO_VEC_DISABLE=1`` to force the stdlib paths with numpy
installed (used by the fallback tests and handy for A/B timing).
"""

from __future__ import annotations

import os
import sys
from typing import Optional

#: Environment switch: any value other than "" / "0" disables the
#: backend even when numpy imports fine.
ENV_DISABLE = "REPRO_VEC_DISABLE"

#: Probe result cache: probed flag, the module (or None), its name.
_state = {"probed": False, "module": None, "name": "none"}

_noticed = False


def xp() -> Optional[object]:
    """Return the active array module (numpy), or None when the
    backend is unavailable or disabled.  The probe runs once per
    process and is cached; :func:`reset_backend_probe` re-arms it."""
    if not _state["probed"]:
        _state["probed"] = True
        _state["module"] = None
        _state["name"] = "none"
        if os.environ.get(ENV_DISABLE, "") in ("", "0"):
            try:
                import numpy
            except ImportError:
                pass
            else:
                _state["module"] = numpy
                _state["name"] = "numpy"
    return _state["module"]


def has_backend() -> bool:
    """True when a vectorized array backend is importable and enabled."""
    return xp() is not None


def backend_name() -> str:
    """``"numpy"`` when the backend is active, else ``"none"`` -- the
    string ``repro --version``, ``index info`` and the daemon's
    ``repro_build_info`` metric report."""
    xp()
    return _state["name"]


def notice_fallback(what: str) -> None:
    """Print the one-line degradation notice, once per process.

    Called by the engine registry when ``engine="numpy"`` is requested
    without a backend; a single clear line beats both silent fallback
    and a hard failure for an optional accelerator.
    """
    global _noticed
    if _noticed:
        return
    _noticed = True
    print(f"repro: {what} requested but no array backend is available"
          f" (numpy is not installed or {ENV_DISABLE} is set);"
          f" falling back to the flat engine", file=sys.stderr)


def reset_backend_probe() -> None:
    """Forget the cached probe result and the fallback notice (test
    hook: lets a test toggle ``REPRO_VEC_DISABLE`` or an import hook
    and re-probe)."""
    global _noticed
    _state["probed"] = False
    _state["module"] = None
    _state["name"] = "none"
    _noticed = False
