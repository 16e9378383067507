"""Property tests pinning the hub-label oracle to the dict engine.

The query processor substitutes an oracle classification for a
dual-heap :func:`bridge_domains` search, so the two must agree on every
``(UD*, VD*)`` pair of every bridge of every network -- with the same
float tolerance, since a classification flip on a borderline pair
would change which bridges the processor skips.  Fuzzed here on random
perturbed grids with random flyovers.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.roadpart.bridges import find_bridges
from repro.datasets.synthetic import add_bridges, grid_network
from repro.shortestpath import HubOracle
from repro.shortestpath.bidirectional import bridge_domains

network_params = st.tuples(st.integers(4, 8), st.integers(4, 8),
                           st.integers(0, 30))

_cache = {}


def _make(columns, rows, seed):
    """A fuzzed bridged network, its detected bridges and the dict
    engine's reference domain sets over a fixed target slice."""
    key = (columns, rows, seed)
    if key not in _cache:
        base = grid_network(columns, rows, seed=seed, drop_rate=0.15)
        network, _ = add_bridges(base, 3, (2.0, 4.5), seed=seed + 1)
        bridges = sorted(find_bridges(network))
        targets = sorted(network.vertices())[::2]
        reference = {}
        for u, v in bridges:
            domains = bridge_domains(network, u, v, targets,
                                     engine="dict")
            reference[(u, v)] = (set(domains.ud_star),
                                 set(domains.vd_star))
            domains.release()
        _cache[key] = (network, bridges, targets, reference)
    return _cache[key]


@given(network_params)
@settings(max_examples=15, deadline=None)
def test_hub_oracle_matches_dict_engine(params):
    network, bridges, targets, reference = _make(*params)
    assume(bridges)
    oracle = HubOracle.build(network, bridges)
    scratch = oracle.scratch(targets)
    for u, v in bridges:
        assert oracle.covers(u, v)
        weight = network.edge_weight(u, v)
        assert scratch.domains(u, v, weight) == reference[(u, v)], (u, v)
        assert scratch.bridge_valid(u, v, weight) == all(
            reference[(u, v)])
