import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import (
    ConflictGraph,
    ConflictParams,
    Link,
    Node,
    PropagationParams,
    Session,
    accumulate_rates,
    build_conflict_graph,
    generate_nodes,
    load_conflict_fixture,
    route_sessions,
)

from conftest import (
    interference_adjacent,
    pairwise_conflict_graph,
    physically_adjacent,
    received_power_db,
    three_link_graph,
)


def _link(lid, tx, rx, nodes):
    return Link(lid, tx, rx, math.dist(nodes[tx].position, nodes[rx].position))


def _chain_nodes(coords, power=0.0):
    return [Node(i, (float(x), float(y)), power) for i, (x, y) in enumerate(coords)]


def test_physically_adjacent_shared_node():
    nodes = _chain_nodes([(0, 0), (0.1, 0), (0.2, 0), (0.3, 0), (0.4, 0)])
    a = _link(0, 1, 2, nodes)
    b = _link(1, 2, 3, nodes)
    assert physically_adjacent(a, b)


def test_physically_adjacent_disjoint():
    nodes = _chain_nodes([(0, 0), (0.1, 0), (0.2, 0), (0.3, 0), (0.4, 0)])
    assert not physically_adjacent(_link(0, 1, 2, nodes), _link(1, 3, 4, nodes))


def test_physically_adjacent_self():
    nodes = _chain_nodes([(0, 0), (0.1, 0)])
    a = _link(0, 0, 1, nodes)
    assert physically_adjacent(a, a)


# Two parallel vertical links one unit apart: each receiver hears its own
# transmitter at +40 dB and the other at roughly -0.09 dB.
_PARALLEL = _chain_nodes([(0, 0), (0, 0.1), (1, 0), (1, 0.1)])
_PAR_A = _link(0, 0, 1, _PARALLEL)
_PAR_B = _link(1, 2, 3, _PARALLEL)


def test_interference_margin_not_violated():
    params = ConflictParams(beta_db=20.0, propagation=PropagationParams(alpha=4.0))
    assert not interference_adjacent(_PAR_A, _PAR_B, _PARALLEL, params)


def test_interference_huge_margin_conflicts():
    params = ConflictParams(beta_db=100.0, propagation=PropagationParams(alpha=4.0))
    assert interference_adjacent(_PAR_A, _PAR_B, _PARALLEL, params)


def test_interference_minus_infinity_never_conflicts():
    params = ConflictParams(beta_db=-math.inf)
    rng = np.random.default_rng(4)
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(rng.random((8, 2)))]
    disjoint = [(_link(0, 0, 1, nodes), _link(1, 2, 3, nodes)),
                (_link(0, 4, 5, nodes), _link(1, 6, 7, nodes)),
                (_link(0, 1, 6, nodes), _link(1, 3, 0, nodes))]
    for a, b in disjoint:
        assert not interference_adjacent(a, b, nodes, params)


def test_interference_symmetric():
    rng = np.random.default_rng(11)
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(rng.random((6, 2)))]
    params = ConflictParams(beta_db=5.0)
    a = _link(0, 0, 1, nodes)
    b = _link(1, 2, 3, nodes)
    assert interference_adjacent(a, b, nodes, params) == interference_adjacent(
        b, a, nodes, params
    )


def test_margin_tie_counts_as_conflict():
    # Link a's transmitter is exactly as far from b's receiver as b's own
    # transmitter, so at beta = 0 the margin test sits at its threshold.
    nodes = _chain_nodes([(0.5, 0.0), (1.0, 0.0), (0.5, 0.5), (0.5, 0.25)])
    links = [_link(0, 0, 1, nodes), _link(1, 2, 3, nodes)]
    for beta, hit in ((0.0, True), (-1e-9, False)):
        params = ConflictParams(beta_db=beta)
        assert interference_adjacent(links[0], links[1], nodes, params) is hit
        edges = build_conflict_graph(links, nodes, params).edge_set()
        assert edges == ({(0, 1)} if hit else set())


def test_chain_with_physical_rule_only():
    nodes = _chain_nodes([(0, 0), (0.25, 0), (0.5, 0), (0.75, 0)])
    links = [_link(0, 0, 1, nodes), _link(1, 1, 2, nodes), _link(2, 2, 3, nodes)]
    g = build_conflict_graph(links, nodes, ConflictParams(beta_db=-math.inf))
    assert g.edge_set() == {(0, 1), (1, 2)}


def test_huge_margin_gives_complete_graph():
    nodes = _chain_nodes([(0, 0), (0.2, 0.9), (0.5, 0.1), (0.9, 0.8)])
    links = [_link(0, 0, 1, nodes), _link(1, 2, 3, nodes), _link(2, 3, 0, nodes)]
    g = build_conflict_graph(links, nodes, ConflictParams(beta_db=100.0))
    assert g.adjacency.all()


def test_empty_link_list_rejected():
    with pytest.raises(ValueError):
        build_conflict_graph([], [], ConflictParams(beta_db=0.0))


def test_nan_margin_rejected():
    with pytest.raises(ValueError):
        ConflictParams(beta_db=math.nan)


def _random_instance(seed, n_nodes=8, n_links=10):
    rng = np.random.default_rng(seed)
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(rng.random((n_nodes, 2)))]
    links = []
    while len(links) < n_links:
        tx, rx = rng.choice(n_nodes, size=2, replace=False)
        links.append(_link(len(links), int(tx), int(rx), nodes))
    return nodes, links


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       beta=st.floats(min_value=-30.0, max_value=60.0))
def test_graph_symmetric_reflexive(seed, beta):
    nodes, links = _random_instance(seed)
    g = build_conflict_graph(links, nodes, ConflictParams(beta_db=beta))
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert g.adjacency.diagonal().all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       offset=st.floats(min_value=-40.0, max_value=40.0))
def test_uniform_power_offset_cancels(seed, offset):
    nodes, links = _random_instance(seed)
    shifted = [Node(n.id, n.position, n.tx_power_db + offset) for n in nodes]
    params = ConflictParams(beta_db=10.0)
    g = build_conflict_graph(links, nodes, params)
    g_shifted = build_conflict_graph(links, shifted, params)
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
    return nodes, [_link(i, tx, rx, nodes) for i, (tx, rx) in enumerate(pairs)]


_BETAS = st.one_of(st.floats(min_value=-30.0, max_value=60.0),
                   st.sampled_from([-math.inf, math.inf]))
_EPS = np.finfo(float).eps


def _margin_is_near_tie(a, b, nodes, params):
    """True when a receiver's margin test for links a and b sits at its threshold.

    There the matrix build and the scalar reference may round to different
    sides: numpy's hypot and log10 may differ from math.dist and math.log10
    by an ulp. The tolerance allows tens of ulps on every term of the test.
    """
    beta, p = params.beta_db, params.propagation
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
    params = ConflictParams(beta, PropagationParams(alpha=alpha))
    got = build_conflict_graph(links, nodes, params).adjacency
    want = pairwise_conflict_graph(links, nodes, params).adjacency
    for a, b in zip(*np.nonzero(got != want)):
        assert _margin_is_near_tie(links[a], links[b], nodes, params), (a, b)


@settings(max_examples=100, deadline=None)
@given(layout=_layouts(), betas=st.lists(_BETAS, min_size=2, max_size=5),
       alpha=st.floats(min_value=2.0, max_value=6.0))
def test_conflicts_monotone_in_margin(layout, betas, alpha):
    # A sweep's graphs form a chain: each margin's edges contain the last's.
    nodes, links = layout
    edges = [build_conflict_graph(links, nodes,
                                  ConflictParams(beta, PropagationParams(alpha=alpha))).edge_set()
             for beta in sorted(betas)]
    assert all(lo <= hi for lo, hi in zip(edges, edges[1:]))


def test_graph_equals_pairwise_reference_on_routed_instances():
    # Sweep-sized instances (20 nodes, 10 routed sessions) at every integer
    # beta of the default sweep: here no margin sits at a tie, so the graphs
    # must be identical, which keeps sweep output byte-identical.
    params = PropagationParams(alpha=4.0)
    for seed in range(3):
        nodes = generate_nodes(20, seed)
        rng = np.random.default_rng(seed)
        sessions = [Session(int(s), int(t), 1)
                    for s, t in (rng.choice(20, size=2, replace=False) for _ in range(10))]
        links, _ = accumulate_rates(route_sessions(nodes, sessions, params), sessions, nodes)
        for beta in range(31):
            conflict = ConflictParams(float(beta), params)
            assert np.array_equal(build_conflict_graph(links, nodes, conflict).adjacency,
                                  pairwise_conflict_graph(links, nodes, conflict).adjacency)


def test_conflict_fixture_roundtrip(tmp_path):
    g = three_link_graph()
    doc = {"n_links": g.n_links, "conflicts": [list(e) for e in sorted(g.edge_set())]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    loaded, rates = load_conflict_fixture(path)
    assert rates is None
    assert loaded.n_links == g.n_links
    assert loaded.edge_set() == g.edge_set()
    assert np.array_equal(loaded.adjacency, g.adjacency)


def test_conflict_fixture_with_rates(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n_links": 2, "conflicts": [[0, 1]], "rates": [4, 2]}))
    _, rates = load_conflict_fixture(path)
    assert rates == (4, 2)


@pytest.mark.parametrize(
    "doc",
    [
        {"n_links": 2, "conflicts": [[0, 2]]},            # index out of range
        {"n_links": 2, "conflicts": [[1, 1]]},            # self pair
        {"n_links": 3, "conflicts": [[0, 1]], "rates": [1, 2]},  # rate length mismatch
        {"conflicts": []},                                 # missing n_links
    ],
)
def test_conflict_fixture_validation(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_conflict_fixture(path)


def test_adjacency_must_be_symmetric():
    adj = np.eye(2, dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ValueError):
        ConflictGraph(2, adj)
