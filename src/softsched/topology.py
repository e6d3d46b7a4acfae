"""Random network instances, minimum-power routing, and per-link demand accumulation.

Nodes live on the unit square. Every ordered node pair is a candidate link;
routing over the full directed mesh picks the subset that actually carries
traffic. Link demand ("rate") is the number of time-slot activations a link
needs to forward all packets routed through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Position = tuple[float, float]


@dataclass(frozen=True)
class Node:
    id: int
    position: Position
    tx_power_db: float = 0.0


@dataclass(frozen=True)
class Link:
    """Directed transmission from node ``tx`` to node ``rx``."""

    tx: int
    rx: int

    def __post_init__(self):
        if self.tx == self.rx:
            raise ValueError(f"link tx and rx must differ (got {self.tx})")


@dataclass(frozen=True)
class Session:
    """Unicast demand: ``packets`` packets from ``source`` to ``sink``."""

    source: int
    sink: int
    packets: int

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError(f"session source and sink must differ (got {self.source})")
        if self.packets < 0:
            raise ValueError(f"negative packet count {self.packets}")


@dataclass(frozen=True)
class PropagationParams:
    """Path-loss model: received power falls off as distance^-alpha."""

    alpha: float = 4.0

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")


@dataclass(frozen=True)
class RateVector:
    """Per-link required activation counts, indexed by link id."""

    rates: tuple[int, ...]

    def __post_init__(self):
        if any(r < 0 for r in self.rates):
            raise ValueError(f"rates must be nonnegative, got {self.rates}")

    def __len__(self):
        return len(self.rates)

    def __getitem__(self, i):
        return self.rates[i]

    def total(self) -> int:
        return sum(self.rates)


def generate_nodes(n: int, seed: int) -> list[Node]:
    """Draw ``n`` nodes i.i.d. uniform on the unit square, deterministically per seed."""
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    return [Node(i, (x, y)) for i, (x, y) in enumerate(coords.tolist())]


def _path(prev: list[int], v: int) -> list[int]:
    """Node sequence from the source to ``v``, read back through predecessors."""
    out = [v]
    while prev[v] >= 0:
        v = prev[v]
        out.append(v)
    return out[::-1]


def _dijkstra(weights: list[list[float]], source: int, sink: int) -> list[int]:
    """Least (total d^alpha, hop count, node sequence) path over the full mesh.

    Dijkstra's array form: each node keeps its best (cost, hops) and a
    predecessor, and one pass over the open nodes relaxes the edges of the
    node just settled and settles the open node of least (cost, hops), the
    lowest index on ties. Sequences are rebuilt from predecessors only when
    a relaxation ties on (cost, hops). Routes are those of a lazy heap of
    (cost, hops, path) entries, which settles tied nodes in sequence order
    instead: float addition is monotone (w >= 0 gives cost + w >= cost), so
    no extension beats its path, and tied nodes cannot improve each other;
    the key is isotone (appending the same node to two paths with equal hops
    keeps their order), so a node's best key is the best extension of a
    settled node; and only settled nodes are extended. Every cost is summed
    from the source in the same order, so even the float values match.
    """
    n = len(weights)
    cost = [math.inf] * n
    hops = [n] * n  # more than any simple path, so every real label beats it
    prev = [-1] * n
    cost[source], hops[source] = 0.0, 0
    open_nodes = [v for v in range(n) if v != source]
    u = source
    while u != sink:
        c_u, h, w_u = cost[u], hops[u] + 1, weights[u]
        best, best_cost, best_hops = -1, math.inf, n + 1
        for v in open_nodes:
            c, c_v = c_u + w_u[v], cost[v]
            if c < c_v or c == c_v and (h < hops[v] or h == hops[v]
                                        and _path(prev, u) < _path(prev, prev[v])):
                cost[v] = c_v = c
                hops[v] = h
                prev[v] = u
            if c_v < best_cost or c_v == best_cost and hops[v] < best_hops:
                best, best_cost, best_hops = v, c_v, hops[v]
        open_nodes.remove(best)
        u = best
    return _path(prev, sink)


def route_sessions(nodes: list[Node], sessions: list[Session],
                   params: PropagationParams) -> list[list[int]]:
    """Route each session over the full directed mesh on a minimum-power path.

    The hop weight is d^alpha, so the chosen path minimises the total
    transmit power needed to cover it. Ties break on hop count, then on the
    lexicographically smallest node sequence, so results are reproducible.
    ``_dijkstra`` finds that path with plain lists instead of a heap. It
    settles nodes in a heap's order up to ties on (cost, hops), whose nodes
    cannot improve each other's label, so every route is the heap's.
    """
    for s in sessions:
        if not (0 <= s.source < len(nodes)) or not (0 <= s.sink < len(nodes)):
            raise ValueError(f"session endpoints {s.source}->{s.sink} outside node range")
    positions = [node.position for node in nodes]
    weights = [[math.dist(p, q) ** params.alpha for q in positions] for p in positions]
    return [_dijkstra(weights, s.source, s.sink) for s in sessions]


def accumulate_rates(paths: list[list[int]],
                     sessions: list[Session]) -> tuple[list[Link], RateVector]:
    """Collapse routed sessions into the scheduled link list and its rate vector.

    A directed link is scheduled iff some positive-packet session traverses
    it; its rate is the total packet count over those sessions. Links are
    listed in first-traversal order, and a link's index in that list is its
    id everywhere downstream.
    """
    if len(paths) != len(sessions):
        raise ValueError(f"{len(paths)} paths for {len(sessions)} sessions")
    totals: dict[tuple[int, int], int] = {}
    for path, sess in zip(paths, sessions):
        if sess.packets == 0:
            continue
        for hop in zip(path, path[1:]):
            totals[hop] = totals.get(hop, 0) + sess.packets
    return [Link(tx, rx) for tx, rx in totals], RateVector(tuple(totals.values()))
