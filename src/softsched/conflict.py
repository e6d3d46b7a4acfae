"""Link conflict graph: which pairs of links may never share a time slot.

Two links conflict when they touch a common node, or when either receiver
would hear the other transmitter within ``beta_db`` of its own signal. The
margin test is pairwise; cumulative interference from several simultaneous
transmitters is deliberately not modelled.

``build_conflict_graph`` evaluates every pair at once: it computes one L x L
matrix of received powers (each link's transmitter at each link's receiver)
and thresholds it against the diagonal, the links' own signals, at
``beta_db``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .topology import Link, Node, PropagationParams


@dataclass(frozen=True)
class ConflictParams:
    """``beta_db`` is the acceptable interference margin in dB.

    ``beta_db = -inf`` is a supported sentinel that disables the margin test
    entirely, leaving only shared-node conflicts.
    """

    beta_db: float
    propagation: PropagationParams = field(default_factory=PropagationParams)

    def __post_init__(self):
        if math.isnan(self.beta_db):
            raise ValueError("beta_db must not be NaN")


@dataclass(eq=False)
class ConflictGraph:
    """Symmetric boolean adjacency over scheduled links, true on the diagonal.

    adjacency[i][j] means links i and j cannot be activated together. Every
    link conflicts with itself so that membership logic downstream needs no
    special case.
    """

    n_links: int
    adjacency: np.ndarray

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        if self.adjacency.shape != (self.n_links, self.n_links):
            raise ValueError(
                f"adjacency shape {self.adjacency.shape} does not match n_links={self.n_links}"
            )
        if not np.array_equal(self.adjacency, self.adjacency.T):
            raise ValueError("adjacency must be symmetric")
        if not self.adjacency.diagonal().all():
            raise ValueError("adjacency diagonal must be true")

    @classmethod
    def from_pairs(cls, n_links: int, pairs) -> "ConflictGraph":
        adj = np.eye(n_links, dtype=bool)
        for i, j in pairs:
            if not (0 <= i < n_links and 0 <= j < n_links) or i == j:
                raise ValueError(f"bad conflict pair ({i}, {j}) for {n_links} links")
            adj[i, j] = adj[j, i] = True
        return cls(n_links, adj)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Off-diagonal conflicts as (i, j) pairs with i < j."""
        ii, jj = np.nonzero(np.triu(self.adjacency, k=1))
        return frozenset(zip(ii.tolist(), jj.tolist()))


def build_conflict_graph(links: list[Link], nodes: list[Node],
                         params: ConflictParams) -> ConflictGraph:
    """Conflict matrix: shared node or failed interference margin, for all pairs at once.

    ``power[a, b]`` is the power in dB of a's transmitter at b's receiver,
    ``tx_power_db - 10 * alpha * log10(max(d, d_min))`` (the path-loss
    constant is unity, which cancels in the margin test), so its diagonal
    holds each link's own signal. Pair (a, b) fails the margin at b's
    receiver when ``own[b] <= power[a, b] + beta_db``; testing both
    receivers makes the matrix symmetric, and raising beta_db can only add
    conflicts.
    """
    if not links:
        raise ValueError("cannot build a conflict graph over an empty link list")
    tx = np.array([link.tx for link in links])
    rx = np.array([link.rx for link in links])
    pos = np.array([node.position for node in nodes], dtype=float)
    tx_power = np.array([node.tx_power_db for node in nodes], dtype=float)
    p = params.propagation
    gap = pos[rx][None, :, :] - pos[tx][:, None, :]
    dist = np.hypot(gap[..., 0], gap[..., 1])
    power = tx_power[tx][:, None] - 10.0 * p.alpha * np.log10(np.maximum(dist, p.d_min))
    own = power.diagonal()
    margin_fails = own[None, :] <= power + params.beta_db
    shared_node = (
        (tx[:, None] == tx[None, :]) | (tx[:, None] == rx[None, :])
        | (rx[:, None] == tx[None, :]) | (rx[:, None] == rx[None, :])
    )
    return ConflictGraph(len(links), shared_node | margin_fails | margin_fails.T)


def load_conflict_fixture(path) -> tuple[ConflictGraph, tuple[int, ...] | None]:
    """Read a conflict fixture: {"n_links": L, "conflicts": [[i,j],...], "rates": [...]}.

    ``rates`` is optional at this level; callers that need demands must check
    for it. The fixture lets known adjacency structures be injected without
    any geometry behind them.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        n_links = int(data["n_links"])
        pairs = [(int(i), int(j)) for i, j in data["conflicts"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: conflict fixture needs 'n_links' and 'conflicts'") from exc
    graph = ConflictGraph.from_pairs(n_links, pairs)
    rates = data.get("rates")
    if rates is not None:
        rates = tuple(int(r) for r in rates)
        if len(rates) != n_links:
            raise ValueError(f"{path}: {len(rates)} rates for {n_links} links")
    return graph, rates


def is_topology_fixture(path) -> bool:
    """Distinguish topology fixtures from conflict fixtures by their keys."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "nodes" in data:
        return True
    if isinstance(data, dict) and "n_links" in data:
        return False
    raise ValueError(f"{path}: neither a topology nor a conflict fixture")
