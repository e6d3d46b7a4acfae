import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import (
    Node,
    PropagationParams,
    Session,
    accumulate_rates,
    generate_nodes,
    load_topology_fixture,
    route_sessions,
)

from conftest import dijkstra_reference, received_power_db


def test_generate_nodes_in_unit_square():
    nodes = generate_nodes(10, seed=7)
    assert len(nodes) == 10
    assert [n.id for n in nodes] == list(range(10))
    for n in nodes:
        assert 0.0 <= n.position[0] <= 1.0
        assert 0.0 <= n.position[1] <= 1.0


def test_generate_nodes_deterministic():
    a = generate_nodes(1, seed=42)
    b = generate_nodes(1, seed=42)
    assert a[0].position == b[0].position
    assert generate_nodes(30, seed=5) == generate_nodes(30, seed=5)


def test_generate_nodes_rejects_zero():
    with pytest.raises(ValueError):
        generate_nodes(0, seed=1)


def _node_at(x, y, power=0.0, nid=0):
    return Node(nid, (x, y), power)


def test_received_power_unit_distance():
    p = PropagationParams(alpha=4.0)
    assert received_power_db(_node_at(0, 0), (1.0, 0.0), p) == pytest.approx(0.0, abs=1e-12)


def test_received_power_near_field():
    p = PropagationParams(alpha=4.0)
    assert received_power_db(_node_at(0, 0), (0.1, 0.0), p) == pytest.approx(40.0, abs=1e-9)


def test_received_power_half_distance_alpha_two():
    # 10 * 2 * log10(2) dB above the transmit power
    p = PropagationParams(alpha=2.0)
    expected = 20.0 * math.log10(2.0)
    assert received_power_db(_node_at(0, 0), (0.5, 0.0), p) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(6.0206, abs=1e-4)


@given(
    d1=st.floats(min_value=1e-3, max_value=1.4),
    d2=st.floats(min_value=1e-3, max_value=1.4),
    alpha=st.floats(min_value=0.5, max_value=6.0),
)
def test_received_power_decreasing_in_distance(d1, d2, alpha):
    p = PropagationParams(alpha=alpha)
    tx = _node_at(0, 0)
    p1 = received_power_db(tx, (d1, 0.0), p)
    p2 = received_power_db(tx, (d2, 0.0), p)
    assert math.isfinite(p1) and math.isfinite(p2)
    if d1 < d2:
        assert p1 >= p2
        if d2 - d1 > 1e-6:  # below that, log10 may round to the same double
            assert p1 > p2


def test_received_power_clamps_colocated():
    p = PropagationParams(alpha=4.0, d_min=1e-6)
    v = received_power_db(_node_at(0.5, 0.5), (0.5, 0.5), p)
    assert math.isfinite(v)
    assert v == pytest.approx(240.0)  # -40 * log10(1e-6)


def test_route_single_hop():
    nodes = [_node_at(0, 0, nid=0), _node_at(0.3, 0, nid=1)]
    paths = route_sessions(nodes, [Session(0, 1, 1)], PropagationParams(alpha=4.0))
    assert paths == [[0, 1]]


def test_route_prefers_relay_when_cheaper():
    # Two 0.5-unit hops cost 2 * 0.5^4 = 0.125 < 1.0 for the direct hop.
    nodes = [_node_at(0, 0, nid=0), _node_at(0.5, 0, nid=1), _node_at(1.0, 0, nid=2)]
    paths = route_sessions(nodes, [Session(0, 2, 1)], PropagationParams(alpha=4.0))
    assert paths == [[0, 1, 2]]


def test_session_rejects_source_equal_sink():
    with pytest.raises(ValueError):
        Session(3, 3, 1)


def test_route_rejects_unknown_endpoint():
    nodes = generate_nodes(3, seed=1)
    with pytest.raises(ValueError):
        route_sessions(nodes, [Session(0, 5, 1)], PropagationParams())


def _exhaustive_best_path(nodes, source, sink, alpha):
    """Minimum (sum of d^alpha, hops, sequence) over all simple paths."""
    n = len(nodes)
    best = None
    others = [v for v in range(n) if v not in (source, sink)]
    for k in range(len(others) + 1):
        for middle in itertools.permutations(others, k):
            path = (source, *middle, sink)
            cost = 0.0
            for u, v in zip(path, path[1:]):
                cost += math.dist(nodes[u].position, nodes[v].position) ** alpha
            key = (cost, len(path) - 1, path)
            if best is None or key < best:
                best = key
    return list(best[2])


@pytest.mark.parametrize("seed", range(12))
def test_route_matches_exhaustive_minimum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    nodes = generate_nodes(n, seed=seed + 100)
    source, sink = rng.choice(n, size=2, replace=False)
    session = Session(int(source), int(sink), 1)
    alpha = float(rng.uniform(1.0, 5.0))
    params = PropagationParams(alpha=alpha)
    got = route_sessions(nodes, [session], params)[0]
    assert got == _exhaustive_best_path(nodes, session.source, session.sink, alpha)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_route_matches_reference_with_cost_ties(data):
    # Coordinates on a coarse grid repeat distances, and repeated positions
    # give zero-cost hops, so many paths tie exactly on cost.
    n = data.draw(st.integers(2, 8))
    coord = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    nodes = [Node(i, (data.draw(coord), data.draw(coord))) for i in range(n)]
    alpha = data.draw(st.sampled_from([1.0, 2.0, 2.5, 4.0]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    sessions = [Session(a, b, 1) for a, b in data.draw(st.lists(pairs, min_size=1, max_size=6))]
    got = route_sessions(nodes, sessions, PropagationParams(alpha=alpha))
    assert got == [dijkstra_reference(nodes, s.source, s.sink, alpha) for s in sessions]


def test_accumulate_single_session():
    nodes = generate_nodes(3, seed=2)
    links, rates = accumulate_rates([[0, 1, 2]], [Session(0, 2, 3)], nodes)
    assert [(l.tx, l.rx) for l in links] == [(0, 1), (1, 2)]
    assert rates.rates == (3, 3)
    assert links[0].distance == pytest.approx(
        math.dist(nodes[0].position, nodes[1].position)
    )


def test_accumulate_shared_link_adds():
    nodes = generate_nodes(3, seed=2)
    sessions = [Session(0, 2, 2), Session(1, 2, 3)]
    links, rates = accumulate_rates([[0, 1, 2], [1, 2]], sessions, nodes)
    assert [(l.tx, l.rx) for l in links] == [(0, 1), (1, 2)]
    assert rates.rates == (2, 5)


def test_accumulate_skips_zero_packet_sessions():
    nodes = generate_nodes(3, seed=2)
    links, rates = accumulate_rates([[0, 1]], [Session(0, 1, 0)], nodes)
    assert links == []
    assert rates.rates == ()


def test_accumulate_length_mismatch():
    nodes = generate_nodes(2, seed=0)
    with pytest.raises(ValueError):
        accumulate_rates([], [Session(0, 1, 1)], nodes)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_rate_conservation(seed, n, data):
    # Total activations equal total packet-hops, whatever the routing did.
    nodes = generate_nodes(n, seed=seed)
    k = data.draw(st.integers(min_value=1, max_value=5))
    sessions = []
    for _ in range(k):
        source = data.draw(st.integers(min_value=0, max_value=n - 1))
        sink = data.draw(st.integers(min_value=0, max_value=n - 1))
        if source == sink:
            sink = (sink + 1) % n
        packets = data.draw(st.integers(min_value=0, max_value=9))
        sessions.append(Session(source, sink, packets))
    paths = route_sessions(nodes, sessions, PropagationParams())
    _, rates = accumulate_rates(paths, sessions, nodes)
    expected = sum(s.packets * (len(p) - 1) for s, p in zip(sessions, paths))
    assert rates.total() == expected


def test_topology_pipeline_deterministic():
    params = PropagationParams(alpha=4.0)
    outputs = []
    for _ in range(2):
        nodes = generate_nodes(8, seed=99)
        sessions = [Session(0, 7, 4), Session(3, 2, 2)]
        paths = route_sessions(nodes, sessions, params)
        links, rates = accumulate_rates(paths, sessions, nodes)
        outputs.append((paths, links, rates))
    assert outputs[0] == outputs[1]


def test_topology_fixture_roundtrip(tmp_path):
    doc = {
        "nodes": [
            {"id": 0, "x": 0.1, "y": 0.2},
            {"id": 1, "x": 0.9, "y": 0.4, "tx_power_db": 3.0},
        ],
        "sessions": [{"source": 0, "sink": 1, "packets": 5}],
    }
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    nodes, sessions = load_topology_fixture(path)
    assert nodes == [Node(0, (0.1, 0.2), 0.0), Node(1, (0.9, 0.4), 3.0)]
    assert sessions == [Session(0, 1, 5)]


@pytest.mark.parametrize(
    "doc",
    [
        {"nodes": [{"id": 1, "x": 0.1, "y": 0.2}], "sessions": []},  # ids not dense
        {"nodes": [{"id": 0, "x": 1.5, "y": 0.2}], "sessions": []},  # off the unit square
        {"nodes": [{"id": 0, "x": 0.1, "y": 0.2}, {"id": 1, "x": 0.2, "y": 0.3}],
         "sessions": [{"source": 0, "sink": 0, "packets": 1}]},      # source == sink
        {"nodes": [{"id": 0, "x": 0.1, "y": 0.2}],
         "sessions": [{"source": 0, "sink": 4, "packets": 1}]},      # unknown endpoint
        {"sessions": []},                                            # missing nodes
    ],
)
def test_topology_fixture_validation(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_topology_fixture(path)
