"""Random network instances, minimum-power routing, and per-link demand accumulation.

Nodes live on the unit square. Every ordered node pair is a candidate link;
routing over the full directed mesh picks the subset that actually carries
traffic. Link demand ("rate") is the number of time-slot activations a link
needs to forward all packets routed through it.
"""

from __future__ import annotations

import heapq
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
    return [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(coords)]


def _dijkstra(weights: list[list[float]], source: int, sink: int) -> list[int]:
    # Priority = (total d^alpha, hop count, node sequence). The tuple order
    # makes ties deterministic: fewer hops first, then the lexicographically
    # smallest node sequence.
    n = len(weights)
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (source,))]
    settled = set()
    while heap:
        cost, hops, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == sink:
            return list(path)
        w_u = weights[u]
        for v in range(n):
            if v == u or v in settled:
                continue
            heapq.heappush(heap, (cost + w_u[v], hops + 1, path + (v,)))
    raise RuntimeError(f"no path from {source} to {sink}")  # unreachable on a full mesh


def route_sessions(nodes: list[Node], sessions: list[Session],
                   params: PropagationParams) -> list[list[int]]:
    """Route each session over the full directed mesh on a minimum-power path.

    The hop weight is d^alpha, so the chosen path minimises the total
    transmit power needed to cover it. Ties break on hop count, then on the
    lexicographically smallest node sequence, so results are reproducible.
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
