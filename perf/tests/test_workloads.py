"""Workload generation is a function of the seed alone."""

import pytest

from repro.datasets.catalog import load_dataset

from perf import workloads


@pytest.fixture(scope="module")
def network():
    return load_dataset("COL-S")[0]


def _plans(network, seed):
    return (workloads.hot_plan(network, seed, 20, 30, 50, 5),
            workloads.cold_plan(network, seed, 24, 300, 5),
            workloads.batch_plan(network, seed, 2),
            workloads.probe_windows(network, seed, 10))


def test_same_seed_gives_identical_inputs(network):
    assert _plans(network, 7) == _plans(network, 7)


def test_different_seeds_give_different_inputs(network):
    for a, b in zip(_plans(network, 7), _plans(network, 8)):
        assert a != b


def test_hot_stream_draws_from_the_pool(network):
    plan = workloads.hot_plan(network, 3, 20, 200, 100, 5)
    assert len(set(plan.warm)) == 20
    assert set(plan.open_bodies) <= set(plan.warm)
    # Zipf: the first-ranked window is the most requested one.
    counts = {b: plan.open_bodies.count(b) for b in plan.warm}
    assert max(counts, key=counts.get) == plan.warm[0]


def test_cold_requests_are_distinct_with_a_fixed_mix(network):
    plan = workloads.cold_plan(network, 3, 40, 300, 5)
    bodies = (plan.open_bodies + plan.closed_bodies + plan.solo_spaced
              + plan.solo_back_to_back)
    assert len(set(bodies)) == len(bodies) == 40 + 300 + 10
    algorithms = [a for a, _ in plan.answers]
    assert algorithms.count("roadpart") == 30
    assert algorithms.count("ble") == 10


def test_epsilons_cycle_through_the_sweep(network):
    windows = workloads.probe_windows(network, 5, 10)
    assert [w.epsilon for w in windows] == list(workloads.EPSILONS) * 2
