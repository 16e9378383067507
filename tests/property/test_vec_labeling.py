"""Property tests pinning the batched PLL builder to the scalar one.

Unlike the query-side kernels (result equivalence up to settle order),
the build-side contract is **identity**: :func:`vec_pruned_labeling`
must reproduce the scalar :class:`HubLabelIndex` labels exactly --
same hub order, same prune decisions, bit-identical float64 distances,
same canonical per-vertex serialisation order -- because ``--oracle
auto`` index files are compared byte-for-byte across engines (here and
in the index-roundtrip CI job).

The whole module skips on a stdlib-only install (no numpy, or
``REPRO_VEC_DISABLE`` set); ``tests/shortestpath/test_oracle.py``
covers the degradation path instead.
"""

import filecmp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.roadpart.index import build_index
from repro.core.roadpart.labeling import FloodEngine, label_round
from repro.datasets.synthetic import add_bridges, grid_network
from repro.shortestpath.hub_labels import HubLabelIndex
from repro.shortestpath.oracle import HubOracle
from repro.vec.backend import has_backend

from tests.property.test_dijkstra_property import connected_networks

pytestmark = pytest.mark.skipif(
    not has_backend(), reason="no array backend (numpy) in this install")


def _bridged_fixture(seed):
    return add_bridges(grid_network(12, 10, seed=seed), 6, (2.0, 5.0),
                       seed=seed + 1)


def _scalar_label_arrays(network, hubs):
    """The scalar builder's labels in the canonical flat layout."""
    index = HubLabelIndex(network, hubs=())
    for hub in hubs:
        index.add_hub(hub)
    offsets, label_hubs, label_dists = [0], [], []
    for v in range(network.num_vertices):
        for h, d in index.label_of(v).items():
            label_hubs.append(h)
            label_dists.append(d)
        offsets.append(len(label_hubs))
    return offsets, label_hubs, label_dists


@given(connected_networks(), st.data())
@settings(max_examples=30, deadline=None)
def test_batched_pll_identical_to_scalar(network, data):
    """Same hub order, same prune decisions, bit-identical distances,
    canonical within-label ordering -- on arbitrary hub subsets of
    random connected networks."""
    from repro.shortestpath.vec import vec_pruned_labeling
    n = network.num_vertices
    hubs = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=min(n, 8), unique=True))
    assert (vec_pruned_labeling(network, hubs)
            == _scalar_label_arrays(network, hubs))


@pytest.mark.parametrize("seed", [3, 7])
def test_hub_oracle_build_identical_with_bridges(seed):
    """HubOracle.build(engine='numpy') equals the scalar build on a
    bridged network, with and without the per-region hub grouping."""
    network, bridges = _bridged_fixture(seed)
    scalar = HubOracle.build(network, bridges)
    vec = HubOracle.build(network, bridges, engine="numpy")
    assert vec.to_payload() == scalar.to_payload()
    index = build_index(network, 6, bridges=bridges)
    region_of = index.regions.region_of
    scalar = HubOracle.build(network, bridges, region_of=region_of)
    vec = HubOracle.build(network, bridges, region_of=region_of,
                          engine="numpy")
    assert vec.to_payload() == scalar.to_payload()


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


def test_build_index_reports_vectorized_oracle_engine():
    network, bridges = _bridged_fixture(11)
    index = build_index(network, 6, bridges=bridges, engine="numpy",
                        oracle="auto")
    assert index.stats.oracle_engine == "vectorized"
    index = build_index(network, 6, bridges=bridges, engine="flat",
                        oracle="auto")
    assert index.stats.oracle_engine == "scalar"


def test_oracle_build_trace_names_the_builder():
    from repro.obs.trace import TraceRecorder
    network, bridges = _bridged_fixture(13)
    for engine, label in (("flat", "pll-scalar"),
                          ("numpy", "pll-vectorized")):
        trace = TraceRecorder()
        build_index(network, 6, bridges=bridges, engine=engine,
                    oracle="auto", trace=trace)
        span = trace.find(label)
        assert span is not None, f"{label} span missing for {engine}"
        assert any(child.label.startswith("region-")
                   for child in span.children)
