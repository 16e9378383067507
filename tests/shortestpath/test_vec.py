"""Unit tests for the array-backend probe and the numpy-engine seam.

Three concerns, all independent of whether numpy is actually installed:

- the probe (:mod:`repro.vec.backend`): caching, the
  ``REPRO_VEC_DISABLE`` switch, the once-per-process fallback notice;
- the engine registry: unknown names rejected with the engines this
  install can actually run, ``numpy`` degrading to ``flat``;
- the **stdlib-only contract**: with numpy made unimportable (a
  meta-path hook, the honest simulation of a bare install), every seam
  -- ``make_search`` and the DPS entry points -- must degrade to the flat/dict paths with byte-identical answers and
  exactly one stderr notice, and never an import-time failure.

The serve-layer engine validation (batch driver + daemon) rides along
at the bottom because it shares the registry under test.
"""

import os
import sys

import pytest

from repro.core.ble import bl_efficiency
from repro.core.dps import DPSQuery
from repro.datasets.queries import window_query
from repro.datasets.synthetic import add_bridges, grid_network
from repro.shortestpath.flat import (
    ENGINES,
    FlatDijkstraSearch,
    available_engines,
    make_search,
    resolve_engine,
)
from repro.vec import backend
from repro.vec.backend import (
    ENV_DISABLE,
    backend_name,
    has_backend,
    notice_fallback,
    reset_backend_probe,
)


@pytest.fixture
def clean_probe():
    """Re-arm the cached probe before and after a test that messes with
    the environment or the import machinery."""
    reset_backend_probe()
    yield
    reset_backend_probe()


def _numpy_installed() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _backend_active() -> bool:
    """What the probe *should* report: numpy importable and not
    disabled by the ambient environment (the CI stdlib leg and a
    plain ``REPRO_VEC_DISABLE=1`` run both go through here)."""
    return (_numpy_installed()
            and os.environ.get(ENV_DISABLE, "0") in ("", "0"))


# -- the probe ---------------------------------------------------------


def test_probe_matches_reality(clean_probe):
    assert has_backend() == _backend_active()
    assert backend_name() == ("numpy" if _backend_active() else "none")


def test_env_disable_forces_stdlib(clean_probe, monkeypatch):
    monkeypatch.setenv(ENV_DISABLE, "1")
    reset_backend_probe()
    assert not has_backend()
    assert backend_name() == "none"


def test_env_disable_zero_means_enabled(clean_probe, monkeypatch):
    monkeypatch.setenv(ENV_DISABLE, "0")
    reset_backend_probe()
    assert has_backend() == _numpy_installed()


def test_notice_prints_once(clean_probe, capsys):
    notice_fallback("engine 'numpy'")
    notice_fallback("engine 'numpy'")
    err = capsys.readouterr().err
    assert err.count("falling back to the flat engine") == 1


# -- the engine registry ----------------------------------------------


def test_unknown_engine_lists_available(clean_probe):
    with pytest.raises(ValueError, match="unknown engine") as exc:
        resolve_engine("cuda")
    for name in available_engines():
        assert name in str(exc.value)


def test_available_engines_tracks_backend(clean_probe, monkeypatch):
    monkeypatch.setenv(ENV_DISABLE, "1")
    reset_backend_probe()
    assert available_engines() == ("flat", "dict")
    assert "numpy" in ENGINES  # still a *known* name, so it resolves


def test_numpy_resolves_to_flat_when_disabled(clean_probe, monkeypatch,
                                              capsys):
    monkeypatch.setenv(ENV_DISABLE, "1")
    reset_backend_probe()
    assert resolve_engine("numpy") == "flat"
    assert "falling back" in capsys.readouterr().err


@pytest.mark.skipif(not _backend_active(),
                    reason="needs an active numpy backend")
def test_numpy_resolves_to_itself_with_backend(clean_probe):
    assert resolve_engine("numpy") == "numpy"
    assert available_engines() == ENGINES


# -- the stdlib-only contract -----------------------------------------


class _BlockNumpy:
    """Meta-path hook that makes ``import numpy`` fail, simulating a
    pure-stdlib install inside this process."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked by the stdlib-only test")
        return None


@pytest.fixture
def no_numpy(clean_probe):
    hook = _BlockNumpy()
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "numpy" or name.startswith("numpy.")}
    for name in saved:
        del sys.modules[name]
    sys.meta_path.insert(0, hook)
    reset_backend_probe()
    yield
    sys.meta_path.remove(hook)
    sys.modules.update(saved)


def _small_workload():
    network, _ = add_bridges(grid_network(8, 8, seed=3), 4, (2.0, 5.0),
                             seed=4)
    query = DPSQuery.q_query(window_query(network, 0.3, seed=5))
    return network, query


def test_stdlib_only_install_degrades_byte_identically(no_numpy, capsys):
    assert not has_backend()
    assert backend_name() == "none"
    # The vec module itself stays importable (its numpy use is lazy)...
    import repro.shortestpath.vec  # noqa: F401
    # ...and the engine seam degrades: same answers, one notice.
    network, query = _small_workload()
    search = make_search(network, 0, engine="numpy")
    assert isinstance(search, FlatDijkstraSearch)
    got = bl_efficiency(network, query, engine="numpy").vertices
    want = bl_efficiency(network, query, engine="flat").vertices
    assert got == want
    err = capsys.readouterr().err
    assert err.count("falling back to the flat engine") == 1


# -- serve-layer engine validation ------------------------------------


def test_run_queries_rejects_unknown_engine(clean_probe):
    from repro.serve import run_queries
    network, query = _small_workload()
    with pytest.raises(ValueError, match="unknown engine"):
        run_queries("ble", [query], network=network, engine="cuda")


def test_daemon_rejects_unknown_engine(clean_probe):
    from repro.serve.daemon import DPSDaemon
    network, _ = _small_workload()
    with pytest.raises(ValueError, match="unknown engine"):
        DPSDaemon(network, algorithm="ble", engine="cuda")


def test_daemon_request_engine_field(clean_probe):
    import json
    from repro.serve.daemon import DPSDaemon
    network, query = _small_workload()
    daemon = DPSDaemon(network, algorithm="ble", cache_size=0)
    q = sorted(query.combined)
    bad = json.dumps({"Q": q, "engine": "cuda"}).encode()
    status, body, _ = daemon.handle_query(bad)
    assert status == 400
    assert b"unknown engine" in body
    good = json.dumps({"Q": q, "engine": "dict"}).encode()
    status, body_dict, _ = daemon.handle_query(good)
    assert status == 200
    default = json.dumps({"Q": q}).encode()
    status, body_default, _ = daemon.handle_query(default)
    assert status == 200
    assert body_dict == body_default  # engines agree on the answer
