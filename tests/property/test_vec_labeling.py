"""Build-side identity under ``engine="numpy"``.

Unlike the query-side kernels (result equivalence up to settle order),
the build-side contract is **identity**: the array-backed flood pass
must reproduce the scalar labelling rounds exactly, and the endpoint
tree table always runs the flat kernel whatever the engine -- because
``--oracle auto`` index files are compared byte-for-byte across
engines (here and in the index-roundtrip CI job).

The whole module skips on a stdlib-only install (no numpy, or
``REPRO_VEC_DISABLE`` set).
"""

import filecmp

import pytest

from repro.core.roadpart.index import build_index
from repro.core.roadpart.labeling import FloodEngine, label_round
from repro.datasets.synthetic import add_bridges, grid_network
from repro.vec.backend import has_backend

pytestmark = pytest.mark.skipif(
    not has_backend(), reason="no array backend (numpy) in this install")


def _bridged_fixture(seed):
    return add_bridges(grid_network(12, 10, seed=seed), 6, (2.0, 5.0),
                       seed=seed + 1)


@pytest.mark.parametrize("seed", [3, 7])
def test_hub_oracle_build_identical_with_bridges(seed):
    """An ``engine="numpy"`` index build attaches the same endpoint
    tree table as the flat and dict builds on a bridged network."""
    network, bridges = _bridged_fixture(seed)
    tables = [build_index(network, 6, bridges=bridges, engine=engine,
                          oracle="auto").oracle.to_payload()
              for engine in ("flat", "dict", "numpy")]
    assert tables[0] == tables[1] == tables[2]


def test_flood_engine_matches_scalar_rounds():
    """Every labelling round agrees label-for-label between the scalar
    BFS and the array-backed flood engine (same components, same
    intervals)."""
    network, bridges = _bridged_fixture(5)
    bridge_set = set(bridges)
    index = build_index(network, 6, bridges=bridges)
    contour = index.contour
    border_positions = [contour.vertex_ids.index(b)
                        for b in index.border_vertex_ids]
    from repro.core.roadpart.labeling import CutCache
    cuts = CutCache(network, forbidden_edges=bridge_set)
    vec_flood = FloodEngine(network, bridge_set, engine="numpy")
    assert vec_flood.vectorized
    for round_index in range(len(border_positions)):
        scalar_labels, scalar_stats = label_round(
            network, contour, border_positions, round_index, bridge_set,
            cuts)
        vec_labels, vec_stats = label_round(
            network, contour, border_positions, round_index, bridge_set,
            cuts, flood=vec_flood)
        assert vec_labels == scalar_labels
        assert vec_stats.bfs_labelled == scalar_stats.bfs_labelled
        assert vec_stats.pockets == scalar_stats.pockets


@pytest.mark.parametrize("fmt", ["json", "bin"])
def test_oracle_index_files_byte_identical(tmp_path, fmt):
    """The acceptance contract: --oracle auto index files compare equal
    (cmp-style, byte for byte) across engine=dict|flat|numpy, serial
    and --jobs 2, in both on-disk formats."""
    network, bridges = _bridged_fixture(9)
    paths = []
    for engine in ("dict", "flat", "numpy"):
        for jobs in (1, 2):
            index = build_index(network, 6, bridges=bridges, jobs=jobs,
                                engine=engine, oracle="auto")
            path = tmp_path / f"{engine}-{jobs}.{fmt}"
            if fmt == "json":
                index.save(str(path))
            else:
                index.save_binary(str(path))
            paths.append(path)
    for path in paths[1:]:
        assert filecmp.cmp(paths[0], path, shallow=False), (
            f"{path.name} differs from {paths[0].name}")


def test_oracle_build_trace_names_the_builder():
    from repro.obs.trace import TraceRecorder
    network, bridges = _bridged_fixture(13)
    for engine in ("flat", "numpy"):
        trace = TraceRecorder()
        build_index(network, 6, bridges=bridges, engine=engine,
                    oracle="auto", trace=trace)
        span = trace.find("oracle")
        assert span is not None, f"oracle span missing for {engine}"
        # The table builder, the same under every engine.
        assert [child.label for child in span.children] == ["trees"]
