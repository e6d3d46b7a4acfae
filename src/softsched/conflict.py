"""Link conflict graph: which pairs of links may never share a time slot.

Two links conflict when they touch a common node, or when either receiver
would hear the other transmitter within ``beta_db`` of its own signal. The
margin test is pairwise; cumulative interference from several simultaneous
transmitters is deliberately not modelled.

``link_powers`` runs once per replication: it computes one L x L matrix of
received powers (each link's transmitter at each link's receiver).
``conflict_stack`` thresholds it against the diagonal, the links' own
signals, at every margin of a sweep in one broadcast, giving a B x L x L
boolean stack; ``build_conflict_graph`` is that stack at a single margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Link, Node, PropagationParams

# Distances are clamped to this, so co-located nodes do not produce an
# infinite received power.
D_MIN = 1e-6


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


def link_powers(links: list[Link], nodes: list[Node],
                propagation: PropagationParams = PropagationParams()):
    """The part of the conflict test that ``beta_db`` does not change: (power, own, shared_node).

    ``power[a, b]`` is the power in dB of a's transmitter at b's receiver,
    ``tx_power_db - 10 * alpha * log10(max(d, D_MIN))`` (the path-loss
    constant is unity, which cancels in the margin test); ``own`` is its
    diagonal, each link's own signal; ``shared_node[a, b]`` means links a and
    b touch a common node.
    """
    if not links:
        raise ValueError("cannot build a conflict graph over an empty link list")
    tx = np.array([link.tx for link in links])
    rx = np.array([link.rx for link in links])
    pos = np.array([node.position for node in nodes], dtype=float)
    tx_power = np.array([node.tx_power_db for node in nodes], dtype=float)
    gap = pos[rx][None, :, :] - pos[tx][:, None, :]
    dist = np.hypot(gap[..., 0], gap[..., 1])
    power = tx_power[tx][:, None] - 10.0 * propagation.alpha * np.log10(np.maximum(dist, D_MIN))
    shared_node = (
        (tx[:, None] == tx[None, :]) | (tx[:, None] == rx[None, :])
        | (rx[:, None] == tx[None, :]) | (rx[:, None] == rx[None, :])
    )
    return power, power.diagonal(), shared_node


def conflict_stack(powers, betas_db) -> np.ndarray:
    """Conflict matrices from ``link_powers``' output at every margin in ``betas_db``, as B x L x L.

    Pair (a, b) fails the margin at b's receiver when
    ``own[b] <= power[a, b] + beta_db``; testing both receivers makes each
    matrix symmetric, and raising beta_db can only add conflicts.
    ``beta_db = -inf`` disables the margin test, leaving only shared-node
    conflicts.
    """
    betas = np.asarray(betas_db, dtype=float)
    if np.isnan(betas).any():
        raise ValueError("beta_db must not be NaN")
    power, own, shared_node = powers
    margin_fails = own <= power + betas[:, None, None]
    return shared_node | margin_fails | margin_fails.transpose(0, 2, 1)


def build_conflict_graph(powers, beta_db: float) -> ConflictGraph:
    """Conflict graph at the single margin ``beta_db``: one layer of ``conflict_stack``."""
    stack = conflict_stack(powers, [beta_db])
    return ConflictGraph(stack.shape[1], stack[0])
