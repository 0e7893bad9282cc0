"""Tests for deterministic random streams and weighted draws."""

import numpy as np
import pytest

from repro.fleet.cluster import default_tenants
from repro.sim.randomness import RandomStreams, weighted_cdf, weighted_index
from repro.workloads import make_workload


def test_same_name_same_stream_object():
    streams = RandomStreams(seed=1)
    assert streams.get("a") is streams.get("a")


def test_streams_are_independent_by_name():
    streams = RandomStreams(seed=1)
    a = streams.get("a").random(5).tolist()
    b = streams.get("b").random(5).tolist()
    assert a != b


def test_reproducible_across_instances():
    a = RandomStreams(seed=9).get("x").random(3).tolist()
    b = RandomStreams(seed=9).get("x").random(3).tolist()
    assert a == b


def test_seed_changes_draws():
    a = RandomStreams(seed=1).get("x").random(3).tolist()
    b = RandomStreams(seed=2).get("x").random(3).tolist()
    assert a != b


def test_adding_consumers_does_not_perturb_existing():
    """Common-random-numbers property: draws from stream 'a' are the same
    whether or not stream 'b' was ever created."""
    lone = RandomStreams(seed=5)
    lone_draws = lone.get("a").random(4).tolist()
    crowded = RandomStreams(seed=5)
    crowded.get("b").random(100)
    crowded_draws = crowded.get("a").random(4).tolist()
    assert lone_draws == crowded_draws


def test_fork_creates_independent_family():
    base = RandomStreams(seed=3)
    fork1 = base.fork("experiment-1")
    fork2 = base.fork("experiment-2")
    same_fork = RandomStreams(seed=3).fork("experiment-1")
    assert fork1.get("x").random(3).tolist() == same_fork.get("x").random(3).tolist()
    assert fork1.get("x").random(3).tolist() != fork2.get("x").random(3).tolist()


# -- weighted draws ------------------------------------------------------------


def _normalised(weights):
    weights = np.array(weights, dtype=float)
    return weights / weights.sum()


WEIGHT_MIXES = {
    "asdb": [t.weight for t in make_workload("asdb", 2000).transaction_types()],
    "tpce": [t.weight for t in make_workload("tpce", 5000).transaction_types()],
    "htap": [t.weight for t in make_workload("htap", 5000).transaction_types()],
    "tenants": [t.weight for t in default_tenants(4)],
}
SEEDS = (0, 1, 2)
#: 4 mixes x 3 seeds x 17k = 204k draws compared in total.
DRAWS = 17_000


@pytest.mark.parametrize("mix", sorted(WEIGHT_MIXES))
def test_weighted_index_matches_numpy_choice(mix):
    p = _normalised(WEIGHT_MIXES[mix])
    cdf = weighted_cdf(p)
    for seed in SEEDS:
        reference = np.random.default_rng(seed)
        fast = np.random.default_rng(seed)
        expected = [int(reference.choice(len(p), p=p)) for _ in range(DRAWS)]
        got = [weighted_index(fast, cdf) for _ in range(DRAWS)]
        assert got == expected
        # One double per draw on both sides: the streams stay aligned.
        assert fast.random() == reference.random()


def test_uniform_and_random_draw_the_same_doubles():
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert ([float(a.uniform()) for _ in range(50_000)]
                == [b.random() for _ in range(50_000)])
        assert a.random() == b.random()
