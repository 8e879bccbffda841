import numpy as np
from hypothesis import given, settings, strategies as st

from bandit_debias.streams import child_seed, substream


def test_substream_reproducible():
    a = substream(7, 1, 2).standard_normal(16)
    b = substream(7, 1, 2).standard_normal(16)
    assert np.array_equal(a, b)


def test_paths_give_distinct_streams():
    base = substream(7).standard_normal(16)
    for path in [(0,), (1,), (0, 0), (0, 1), (1, 0)]:
        assert not np.array_equal(base, substream(7, *path).standard_normal(16))


def test_nested_paths_give_distinct_seed_states():
    # Two streams are disjoint iff their keyed SeedSequences differ.
    paths = [(3,), (3, 0), (3, 1), (3, 0, 0), (3, 0, 1), (4,), (4, 0)]
    states = {
        tuple(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(4)) for seed, *key in paths
    }
    assert len(states) == 7


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 1000), st.integers(0, 1000))
def test_child_seed_stable_and_64bit(seed, a, b):
    s = child_seed(seed, a, b)
    assert s == child_seed(seed, a, b)
    assert 0 <= s < 2**64


def test_child_seed_differs_from_parent_stream():
    # a derived seed must not replicate its parent's stream
    parent = substream(11).standard_normal(8)
    derived = substream(child_seed(11, 0)).standard_normal(8)
    assert not np.array_equal(parent, derived)
