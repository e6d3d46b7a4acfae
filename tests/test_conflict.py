import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import (
    ConflictGraph,
    Link,
    Node,
    PropagationParams,
    RateVector,
    Session,
    accumulate_rates,
    build_conflict_graph,
    conflict_stack,
    generate_nodes,
    link_powers,
    load_fixture,
    route_sessions,
)

from conftest import (
    interference_adjacent,
    pairwise_conflict_graph,
    physically_adjacent,
    received_power_db,
    three_link_graph,
)


def _chain_nodes(coords, power=0.0):
    return [Node(i, (float(x), float(y)), power) for i, (x, y) in enumerate(coords)]


def test_physically_adjacent_shared_node():
    a = Link(1, 2)
    b = Link(2, 3)
    assert physically_adjacent(a, b)


def test_physically_adjacent_disjoint():
    assert not physically_adjacent(Link(1, 2), Link(3, 4))


def test_physically_adjacent_self():
    a = Link(0, 1)
    assert physically_adjacent(a, a)


# Two parallel vertical links one unit apart: each receiver hears its own
# transmitter at +40 dB and the other at roughly -0.09 dB.
_PARALLEL = _chain_nodes([(0, 0), (0, 0.1), (1, 0), (1, 0.1)])
_PAR_A = Link(0, 1)
_PAR_B = Link(2, 3)


def test_interference_margin_not_violated():
    assert not interference_adjacent(_PAR_A, _PAR_B, _PARALLEL, 20.0, PropagationParams(alpha=4.0))


def test_interference_huge_margin_conflicts():
    assert interference_adjacent(_PAR_A, _PAR_B, _PARALLEL, 100.0, PropagationParams(alpha=4.0))


def test_interference_minus_infinity_never_conflicts():
    rng = np.random.default_rng(4)
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(rng.random((8, 2)))]
    disjoint = [(Link(0, 1), Link(2, 3)),
                (Link(4, 5), Link(6, 7)),
                (Link(1, 6), Link(3, 0))]
    for a, b in disjoint:
        assert not interference_adjacent(a, b, nodes, -math.inf)


def test_interference_symmetric():
    rng = np.random.default_rng(11)
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(rng.random((6, 2)))]
    a = Link(0, 1)
    b = Link(2, 3)
    assert interference_adjacent(a, b, nodes, 5.0) == interference_adjacent(b, a, nodes, 5.0)


def test_margin_tie_counts_as_conflict():
    # Link a's transmitter is exactly as far from b's receiver as b's own
    # transmitter, so at beta = 0 the margin test sits at its threshold.
    nodes = _chain_nodes([(0.5, 0.0), (1.0, 0.0), (0.5, 0.5), (0.5, 0.25)])
    links = [Link(0, 1), Link(2, 3)]
    for beta, hit in ((0.0, True), (-1e-9, False)):
        assert interference_adjacent(links[0], links[1], nodes, beta) is hit
        edges = build_conflict_graph(link_powers(links, nodes), beta).edge_set()
        assert edges == ({(0, 1)} if hit else set())


def test_chain_with_physical_rule_only():
    nodes = _chain_nodes([(0, 0), (0.25, 0), (0.5, 0), (0.75, 0)])
    links = [Link(0, 1), Link(1, 2), Link(2, 3)]
    g = build_conflict_graph(link_powers(links, nodes), -math.inf)
    assert g.edge_set() == {(0, 1), (1, 2)}


def test_huge_margin_gives_complete_graph():
    nodes = _chain_nodes([(0, 0), (0.2, 0.9), (0.5, 0.1), (0.9, 0.8)])
    links = [Link(0, 1), Link(2, 3), Link(3, 0)]
    g = build_conflict_graph(link_powers(links, nodes), 100.0)
    assert g.adjacency.all()


def test_empty_link_list_rejected():
    with pytest.raises(ValueError):
        link_powers([], [])


def test_nan_margin_rejected():
    with pytest.raises(ValueError):
        build_conflict_graph(link_powers([_PAR_A, _PAR_B], _PARALLEL), math.nan)


def _random_instance(seed, n_nodes=8, n_links=10):
    rng = np.random.default_rng(seed)
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(rng.random((n_nodes, 2)))]
    links = []
    while len(links) < n_links:
        tx, rx = rng.choice(n_nodes, size=2, replace=False)
        links.append(Link(int(tx), int(rx)))
    return nodes, links


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       beta=st.floats(min_value=-30.0, max_value=60.0))
def test_graph_symmetric_reflexive(seed, beta):
    nodes, links = _random_instance(seed)
    g = build_conflict_graph(link_powers(links, nodes), beta)
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert g.adjacency.diagonal().all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       offset=st.floats(min_value=-40.0, max_value=40.0))
def test_uniform_power_offset_cancels(seed, offset):
    nodes, links = _random_instance(seed)
    shifted = [Node(n.id, n.position, n.tx_power_db + offset) for n in nodes]
    g = build_conflict_graph(link_powers(links, nodes), 10.0)
    g_shifted = build_conflict_graph(link_powers(links, shifted), 10.0)
    assert np.array_equal(g.adjacency, g_shifted.adjacency)


@st.composite
def _layouts(draw):
    """Nodes with their own transmit powers, and links that may share nodes."""
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    unit = st.floats(min_value=0.0, max_value=1.0)
    nodes = [
        Node(i, (draw(unit), draw(unit)), draw(st.floats(min_value=-20.0, max_value=20.0)))
        for i in range(n_nodes)
    ]
    node_id = st.integers(min_value=0, max_value=n_nodes - 1)
    pairs = draw(st.lists(st.tuples(node_id, node_id).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=12))
    return nodes, [Link(tx, rx) for tx, rx in pairs]


_BETAS = st.one_of(st.floats(min_value=-30.0, max_value=60.0),
                   st.sampled_from([-math.inf, math.inf]))
_EPS = np.finfo(float).eps


def _margin_is_near_tie(a, b, nodes, beta, p):
    """True when a receiver's margin test for links a and b sits at its threshold.

    There the matrix build and the scalar reference may round to different
    sides: numpy's hypot and log10 may differ from math.dist and math.log10
    by an ulp. The tolerance allows tens of ulps on every term of the test.
    """
    if not math.isfinite(beta):
        return False
    for victim, interferer in ((b, a), (a, b)):
        own = received_power_db(nodes[victim.tx], nodes[victim.rx].position, p)
        other = received_power_db(nodes[interferer.tx], nodes[victim.rx].position, p)
        tol = 64 * _EPS * (abs(own) + abs(other) + abs(beta) + 10.0 * p.alpha)
        if abs(own - other - beta) <= tol:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(layout=_layouts(), beta=_BETAS, alpha=st.floats(min_value=2.0, max_value=6.0))
def test_graph_matches_pairwise_reference(layout, beta, alpha):
    nodes, links = layout
    p = PropagationParams(alpha=alpha)
    got = build_conflict_graph(link_powers(links, nodes, p), beta).adjacency
    want = pairwise_conflict_graph(links, nodes, beta, p).adjacency
    for a, b in zip(*np.nonzero(got != want)):
        assert _margin_is_near_tie(links[a], links[b], nodes, beta, p), (a, b)


@settings(max_examples=100, deadline=None)
@given(layout=_layouts(), betas=st.lists(_BETAS, min_size=2, max_size=5),
       alpha=st.floats(min_value=2.0, max_value=6.0))
def test_conflicts_monotone_in_margin(layout, betas, alpha):
    # A sweep's graphs form a chain: each margin's edges contain the last's.
    nodes, links = layout
    powers = link_powers(links, nodes, PropagationParams(alpha=alpha))
    edges = [build_conflict_graph(powers, beta).edge_set() for beta in sorted(betas)]
    assert all(lo <= hi for lo, hi in zip(edges, edges[1:]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_nodes=st.integers(min_value=2, max_value=20),
       n_links=st.integers(min_value=1, max_value=80),
       betas=st.lists(_BETAS, min_size=1, max_size=8))
def test_stack_is_every_margin_graph_and_nests(seed, n_nodes, n_links, betas):
    # One broadcast over a sweep's margins gives each margin's single graph,
    # and the layers of an ascending sweep only gain conflicts.
    nodes, links = _random_instance(seed, n_nodes, n_links)
    powers = link_powers(links, nodes)
    betas = sorted(betas)
    stack = conflict_stack(powers, betas)
    assert stack.shape == (len(betas), n_links, n_links) and stack.dtype == bool
    for beta, layer in zip(betas, stack):
        assert np.array_equal(layer, build_conflict_graph(powers, beta).adjacency)
    assert not (stack[:-1] & ~stack[1:]).any()


def test_stack_rejects_any_nan_margin():
    powers = link_powers([_PAR_A, _PAR_B], _PARALLEL)
    with pytest.raises(ValueError, match="NaN"):
        conflict_stack(powers, [0.0, math.nan, 10.0])


def test_graph_equals_pairwise_reference_on_routed_instances():
    # Sweep-sized instances (20 nodes, 10 routed sessions) at every integer
    # beta of the default sweep, with the powers built once per instance as
    # run_instance does: here no margin sits at a tie, so the graphs must be
    # identical, which keeps sweep output byte-identical.
    params = PropagationParams(alpha=4.0)
    for seed in range(3):
        nodes = generate_nodes(20, seed)
        rng = np.random.default_rng(seed)
        sessions = [Session(int(s), int(t), 1)
                    for s, t in (rng.choice(20, size=2, replace=False) for _ in range(10))]
        links, _ = accumulate_rates(route_sessions(nodes, sessions, params), sessions)
        powers = link_powers(links, nodes, params)
        for beta in range(31):
            want = pairwise_conflict_graph(links, nodes, float(beta), params)
            assert np.array_equal(build_conflict_graph(powers, float(beta)).adjacency,
                                  want.adjacency)


def test_conflict_fixture_roundtrip(tmp_path):
    g = three_link_graph()
    doc = {"n_links": g.n_links, "conflicts": [list(e) for e in sorted(g.edge_set())],
           "rates": [3, 1, 2]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    fixture = load_fixture(path)
    assert fixture.kind == "conflict"
    loaded = fixture.graph
    assert loaded.n_links == g.n_links
    assert loaded.edge_set() == g.edge_set()
    assert np.array_equal(loaded.adjacency, g.adjacency)


def test_conflict_fixture_with_rates(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n_links": 2, "conflicts": [[0, 1]], "rates": [4, 2]}))
    assert load_fixture(path).rates == RateVector((4, 2))


@pytest.mark.parametrize(
    "doc",  # (fixture document, expected error message)
    [
        ({"n_links": 2, "conflicts": [[0, 2]], "rates": [1, 1]},
         r"bad conflict pair \(0, 2\)"),                  # index out of range
        ({"n_links": 2, "conflicts": [[1, 1]], "rates": [1, 1]},
         r"bad conflict pair \(1, 1\)"),                  # self pair
        ({"n_links": 3, "conflicts": [[0, 1]], "rates": [1, 2]},
         "2 rates for 3 links"),                           # rate length mismatch
        ({"conflicts": [], "rates": [1]}, "'n_links'"),    # missing n_links
    ],
)
def test_conflict_fixture_validation(tmp_path, doc):
    document, message = doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match=message):
        load_fixture(path)


def test_adjacency_must_be_symmetric():
    adj = np.eye(2, dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ValueError):
        ConflictGraph(2, adj)
