import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import (
    Coloring,
    ConflictGraph,
    RateVector,
    build_payoff,
    coloring_slots,
    enumerate_maximal,
    first_fit_stack,
    greedy_color,
    no_schedule_slots,
)

from conftest import (
    THREE_LINK_RATES,
    first_fit_classes,
    independent_in,
    lp_oracle,
    max_coloring_slots_reference,
    random_conflict_graph,
    three_link_graph,
)


def test_three_link_default_order():
    c = greedy_color(three_link_graph(), [0, 1, 2])
    assert c.classes == ((0, 1), (2,))
    assert coloring_slots(c.colors, THREE_LINK_RATES) == 5


def test_three_link_alternate_order():
    c = greedy_color(three_link_graph(), [0, 2, 1])
    assert c.classes == ((0, 2), (1,))
    assert coloring_slots(c.colors, THREE_LINK_RATES) == 4


def test_complete_graph_all_singletons():
    # 70 links need more colors than a 64-bit mask has bits.
    for n, order in ((4, [0, 1, 2, 3]), (4, [3, 1, 0, 2]), (70, list(range(69, -1, -1)))):
        g = ConflictGraph(n, np.ones((n, n), dtype=bool))
        c = greedy_color(g, order)
        assert c.classes == tuple((link,) for link in order)
        assert coloring_slots(c.colors, RateVector(tuple(range(n)))) == sum(range(n))


def test_order_must_be_permutation():
    g = three_link_graph()
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            greedy_color(g, bad)


def test_zero_rates_need_zero_slots():
    c = greedy_color(three_link_graph(), [0, 1, 2])
    assert coloring_slots(c.colors, RateVector((0, 0, 0))) == 0


def test_slot_sums_do_not_wrap():
    # Two conflicting links of rate 2**62 need 2**63 slots, one past int64.
    g = ConflictGraph(2, np.ones((2, 2), dtype=bool))
    assert coloring_slots(greedy_color(g, [0, 1]).colors, RateVector((2**62, 2**62))) == 2**63


def test_no_schedule_slots():
    assert no_schedule_slots(RateVector((3, 1, 2))) == 6
    assert no_schedule_slots(RateVector((1,))) == 1
    assert no_schedule_slots(RateVector(())) == 0


def test_slots_require_full_coverage():
    c = greedy_color(three_link_graph(), [0, 1, 2])
    with pytest.raises(ValueError):
        coloring_slots(c.colors, RateVector((1, 1)))
    # One rate would otherwise broadcast over both links.
    with pytest.raises(ValueError):
        coloring_slots((0, 1), RateVector((1,)))
    # A negative class index would otherwise count in the last class.
    with pytest.raises(ValueError):
        coloring_slots((0, -1, 0), THREE_LINK_RATES)


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
    assert coloring_slots(c.colors, r) <= no_schedule_slots(r)
    if all(len(cls) == 1 for cls in c.classes):
        assert coloring_slots(c.colors, r) == no_schedule_slots(r)


def test_three_link_max_coloring_sits_between_soft_and_greedy():
    # Soft needs 3 slots, the best hard coloring 4 and greedy in index order 5.
    g = three_link_graph()
    assert max_coloring_slots_reference(g, THREE_LINK_RATES.rates) == 4
    assert coloring_slots(greedy_color(g, [0, 1, 2]).colors, THREE_LINK_RATES) == 5


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hard_optimum_lies_between_the_soft_bound_and_first_fit(n, p, seed):
    # How weak the greedy baseline is: no hard coloring beats ceil(1/v*), the
    # fractional schedule length, and first fit in index order is never
    # better than the exact max-coloring optimum.
    rng = np.random.default_rng(seed)
    g = random_conflict_graph(rng, n, p)
    r = RateVector(tuple(int(v) for v in rng.integers(1, 20, n)))
    value, _ = lp_oracle(build_payoff(enumerate_maximal(g), r))
    optimum = max_coloring_slots_reference(g, r.rates)
    assert math.ceil(1 / value - 1e-9) <= optimum
    assert optimum <= coloring_slots(greedy_color(g, list(range(n))).colors, r)


@settings(max_examples=100, deadline=None)
@given(
    # Up to 80 links, so dense graphs need more than 64 colors.
    n=st.integers(min_value=1, max_value=80),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
    numpy_order=st.booleans(),
)
def test_greedy_matches_first_fit_reference(n, p, seed, numpy_order):
    rng = np.random.default_rng(seed)
    g = random_conflict_graph(rng, n, p)
    order = rng.permutation(n)
    if not numpy_order:
        order = [int(v) for v in order]
    assert greedy_color(g, order).classes == first_fit_classes(g, order)


@settings(max_examples=100, deadline=None)
@given(
    # Up to 80 links: dense graphs need more than 64 colors.
    n=st.integers(min_value=1, max_value=80),
    ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stack_first_fit_matches_reference_at_every_layer(n, ps, seed):
    rng = np.random.default_rng(seed)
    graphs = [random_conflict_graph(rng, n, p) for p in ps]
    colors = first_fit_stack(np.stack([g.adjacency for g in graphs]))
    assert colors.shape == (len(graphs), n) and colors.dtype == np.intp
    assert ([Coloring(tuple(row)).classes for row in colors.tolist()]
            == [first_fit_classes(g, range(n)) for g in graphs])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=80),
    ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
    # Rates up to 2**64: a sum of them does not fit an int64.
    rates=st.lists(st.integers(min_value=0, max_value=2**64), min_size=81, max_size=81),
)
def test_stack_slots_match_reference_sums_at_every_layer(n, ps, seed, rates):
    rng = np.random.default_rng(seed)
    graphs = [random_conflict_graph(rng, n, p) for p in ps]
    colors = first_fit_stack(np.stack([g.adjacency for g in graphs]))
    r = RateVector(tuple(rates[:n]))
    want = [sum(max(r[link] for link in cls) for cls in first_fit_classes(g, range(n)))
            for g in graphs]
    got = coloring_slots(colors, r)
    assert got == want and all(type(v) is int for v in got)
    assert [coloring_slots(row, r) for row in colors] == want
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError):
            coloring_slots(colors, RateVector(tuple(rates[:wrong])))
