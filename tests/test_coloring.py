import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import (
    ConflictGraph,
    RateVector,
    coloring_slots,
    greedy_color,
    no_schedule_slots,
)

from conftest import (
    THREE_LINK_RATES,
    first_fit_classes,
    independent_in,
    random_conflict_graph,
    three_link_graph,
)


def test_three_link_default_order():
    c = greedy_color(three_link_graph(), [0, 1, 2])
    assert c.classes == ((0, 1), (2,))
    assert coloring_slots(c, THREE_LINK_RATES) == 5


def test_three_link_alternate_order():
    c = greedy_color(three_link_graph(), [0, 2, 1])
    assert c.classes == ((0, 2), (1,))
    assert coloring_slots(c, THREE_LINK_RATES) == 4


def test_complete_graph_all_singletons():
    g = ConflictGraph(4, np.ones((4, 4), dtype=bool))
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        c = greedy_color(g, order)
        assert sorted(c.classes) == [(0,), (1,), (2,), (3,)]


def test_order_must_be_permutation():
    g = three_link_graph()
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            greedy_color(g, bad)


def test_zero_rates_need_zero_slots():
    c = greedy_color(three_link_graph(), [0, 1, 2])
    assert coloring_slots(c, RateVector((0, 0, 0))) == 0


def test_no_schedule_slots():
    assert no_schedule_slots(RateVector((3, 1, 2))) == 6
    assert no_schedule_slots(RateVector((1,))) == 1
    assert no_schedule_slots(RateVector(())) == 0


def test_slots_require_full_coverage():
    c = greedy_color(three_link_graph(), [0, 1, 2])
    with pytest.raises(ValueError):
        coloring_slots(c, RateVector((1, 1)))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_greedy_classes_are_valid(n, p, seed):
    rng = np.random.default_rng(seed)
    g = random_conflict_graph(rng, n, p)
    order = list(rng.permutation(n))
    c = greedy_color(g, [int(v) for v in order])
    # partition of the link set
    assert sorted(link for cls in c.classes for link in cls) == list(range(n))
    for cls in c.classes:
        assert independent_in(g.adjacency, cls)
    # classic first-fit bound: class count at most max conflict degree + 1
    max_degree = int((g.adjacency.sum(axis=1) - 1).max())
    assert len(c.classes) <= max_degree + 1


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_coloring_never_beats_no_reuse_backwards(n, p, seed):
    rng = np.random.default_rng(seed)
    g = random_conflict_graph(rng, n, p)
    r = RateVector(tuple(int(v) for v in rng.integers(1, 10, n)))
    c = greedy_color(g, list(range(n)))
    assert coloring_slots(c, r) <= no_schedule_slots(r)
    if all(len(cls) == 1 for cls in c.classes):
        assert coloring_slots(c, r) == no_schedule_slots(r)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_greedy_matches_first_fit_reference(n, p, seed):
    rng = np.random.default_rng(seed)
    g = random_conflict_graph(rng, n, p)
    order = [int(v) for v in rng.permutation(n)]
    assert greedy_color(g, order).classes == first_fit_classes(g, order)
