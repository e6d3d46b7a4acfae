import gc
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softsched import (
    Component,
    ConflictGraph,
    ExperimentConfig,
    ResourceLimitError,
    enumerate_maximal,
    run_instance,
)
from softsched.components import _links

from conftest import (
    brute_force_maximal,
    enumerate_maximal_reference,
    independent_in,
    random_conflict_graph,
    three_link_graph,
)


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


def test_maximal_zero_links_is_rejected():
    with pytest.raises(ValueError, match="no links"):
        enumerate_maximal(ConflictGraph(0, np.zeros((0, 0), dtype=bool)))


def structured_graph(n, shape):
    """A conflict graph on n links whose compatible pairs form the named shape.

    "edgeless" has no conflict and "complete" every one. "edges" and
    "triangles" let links share a slot only within consecutive blocks of 2
    or 3 (the last block may be shorter), so each block is one component.
    """
    if shape == "edgeless":
        return ConflictGraph(n, np.eye(n, dtype=bool))
    if shape == "complete":
        return ConflictGraph(n, np.ones((n, n), dtype=bool))
    block = np.arange(n) // {"edges": 2, "triangles": 3}[shape]
    return ConflictGraph(n, (block[:, None] != block[None, :]) | np.eye(n, dtype=bool))


# Sizes at and past the byte boundaries of the bitset-to-links table (8 links
# a byte, 128 links in the table).
@pytest.mark.parametrize("n", [8, 9, 64, 65, 128, 129, 200])
@pytest.mark.parametrize("shape", ["edgeless", "complete", "edges", "triangles"])
def test_structured_graphs_equal_the_reference(n, shape):
    g = structured_graph(n, shape)
    assert enumerate_maximal(g) == enumerate_maximal_reference(g)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 300) - 1))
@example(bits=0)
@example(bits=(1 << 128) - 1)
@example(bits=1 << 128)
@example(bits=(1 << 256) | (1 << 127) | 1)
def test_links_are_the_set_bits_ascending(bits):
    assert _links(bits) == tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_cap_raises_one_below_the_count_and_passes_at_it(n, p, seed):
    # The (cap + 1)-th component raises, whether it is found by a call of its
    # own or appended by its parent's branch.
    g = random_conflict_graph(np.random.default_rng(seed), n, p)
    comps = enumerate_maximal(g)
    assert enumerate_maximal(g, cap=len(comps)) == comps
    message = re.escape(f"component count exceeds the cap of {len(comps) - 1}; raise the cap")
    with pytest.raises(ResourceLimitError, match=message):
        enumerate_maximal(g, cap=len(comps) - 1)


def maximal_or_limit(enumerator, g, cap):
    try:
        return enumerator(g, cap=cap)
    except ResourceLimitError:
        return "over the cap"


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10_000),
    cap=st.sampled_from([0, 1, 50, 2_000]),
)
def test_bitset_enumeration_equals_frozenset_reference(n, p, seed, cap):
    # Same components in the same order, and the cap is hit on the same graphs.
    g = random_conflict_graph(np.random.default_rng(seed), n, p)
    assert maximal_or_limit(enumerate_maximal, g, cap) == maximal_or_limit(
        enumerate_maximal_reference, g, cap)


@settings(max_examples=200, deadline=None)
@given(members=st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=6))
def test_component_validation_accepts_exactly_sorted_distinct_members(members):
    members = tuple(members)
    if list(members) == sorted(set(members)):
        assert Component(members).members == members
    else:
        with pytest.raises(ValueError, match="sorted and distinct"):
            Component(members)


def cyclic_garbage(call, *args):
    """Objects the collector finds unreachable after call(*args), run once before to warm up."""
    call(*args)
    gc.collect()
    gc.disable()
    try:
        call(*args)
        return gc.collect()
    finally:
        gc.enable()


def test_enumeration_leaves_no_cyclic_garbage():
    path = ConflictGraph.from_pairs(6, [(i, i + 1) for i in range(5)])
    assert cyclic_garbage(enumerate_maximal, path) == 0
    assert cyclic_garbage(enumerate_maximal,
                          random_conflict_graph(np.random.default_rng(3), 20, 0.4)) == 0


def test_desk_replication_leaves_no_cyclic_garbage():
    cfg = ExperimentConfig(n_nodes=10, n_sessions=10, runs=1, seed=30)
    assert cyclic_garbage(run_instance, cfg, 0) == 0
