import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import Component, ConflictGraph, ResourceLimitError, enumerate_maximal

from conftest import brute_force_maximal, independent_in, random_conflict_graph, three_link_graph


def members(comps):
    return [c.members for c in comps]


def test_complete_graph_only_singletons():
    g = ConflictGraph(3, np.ones((3, 3), dtype=bool))
    assert members(enumerate_maximal(g)) == [(0,), (1,), (2,)]


def test_component_cap_is_enforced():
    with pytest.raises(ResourceLimitError, match="4"):
        enumerate_maximal(ConflictGraph(6, np.ones((6, 6), dtype=bool)), cap=4)


def test_maximal_three_link():
    assert members(enumerate_maximal(three_link_graph())) == [(0, 1), (0, 2)]


def test_maximal_single_link():
    assert members(enumerate_maximal(ConflictGraph.from_pairs(1, []))) == [(0,)]


def test_maximal_four_cycle():
    g = ConflictGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert members(enumerate_maximal(g)) == [(0, 2), (1, 3)]


def test_component_validation():
    with pytest.raises(ValueError):
        Component(())
    with pytest.raises(ValueError):
        Component((2, 1))
    with pytest.raises(ValueError):
        Component((1, 1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_maximal_matches_brute_force(n, p, seed):
    g = random_conflict_graph(np.random.default_rng(seed), n, p)
    assert members(enumerate_maximal(g)) == brute_force_maximal(g)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_maximal_are_independent_and_maximal(n, p, seed):
    g = random_conflict_graph(np.random.default_rng(seed), n, p)
    maximal = enumerate_maximal(g)
    covered = set()
    for comp in maximal:
        assert independent_in(g.adjacency, comp.members)
        covered.update(comp.members)
        outside = set(range(n)) - set(comp.members)
        for extra in outside:
            assert not independent_in(g.adjacency, comp.members + (extra,))
    # every link sits in at least one maximal component
    assert covered == set(range(n))

