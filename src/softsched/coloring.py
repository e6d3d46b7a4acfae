"""Conventional greedy link coloring and the baseline slot-count metrics.

Hard coloring assigns each link to exactly one color class; all links of a
class fire together, so a class must be repeated as many slots as its
largest per-link rate. The greedy scheme is order-dependent, which is why
the processing order is an explicit argument.

``first_fit_stack`` colors a B x L x L stack of conflict matrices, the
margins of a sweep, into B x L class indices, and ``coloring_slots`` counts
all B rows at once; ``greedy_color`` is that pass on one graph in an order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph
from .topology import RateVector


@dataclass(frozen=True)
class Coloring:
    """The class index of each link; together the classes partition the link set."""

    colors: tuple[int, ...]

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Class k's links in increasing order, for k = 0, 1, ..."""
        return tuple(tuple(i for i, c in enumerate(self.colors) if c == k)
                     for k in range(max(self.colors, default=-1) + 1))


def first_fit_stack(stack: np.ndarray) -> np.ndarray:
    """First-fit coloring in link order of every matrix of a B x L x L stack.

    Link i takes the lowest color that none of links 0..i-1 it conflicts
    with holds. The loop runs over links with numpy across the B matrices:
    a link's earlier conflicts scatter their colors into a forbidden mask of
    i + 1 colors, which always has a free one, and ``argmin`` finds the
    first. Returns the B x L ``intp`` colors, opened in increasing order.
    """
    n_graphs, n_links = stack.shape[:2]
    colors = np.zeros((n_graphs, n_links), dtype=np.intp)
    for i in range(1, n_links):
        graph, earlier = np.nonzero(stack[:, i, :i])
        forbidden = np.zeros((n_graphs, i + 1), dtype=bool)
        forbidden[graph, colors[graph, earlier]] = True
        colors[:, i] = forbidden.argmin(axis=1)
    return colors


def greedy_color(g: ConflictGraph, order: list[int]) -> Coloring:
    """First-fit coloring: each link joins the lowest class it does not conflict with.

    ``order`` must be a permutation of 0..L-1; the first link opens class 0,
    and a link that conflicts with every existing class opens a new one.
    This is ``first_fit_stack`` on the adjacency permuted into ``order``.
    """
    if sorted(order) != list(range(g.n_links)):
        raise ValueError(f"order must be a permutation of 0..{g.n_links - 1}")
    order = np.asarray(order, dtype=np.intp)
    colors = np.empty(g.n_links, dtype=np.intp)
    colors[order] = first_fit_stack(g.adjacency[np.ix_(order, order)][None])[0]
    return Coloring(tuple(colors.tolist()))


def coloring_slots(colors, r: RateVector):
    """Slots for hard colorings: sum over classes of the largest class rate.

    ``colors`` is an (L,) class index per link, giving an int, or a (B, L)
    stack of them, giving a list of B ints; sums are exact Python ints.
    """
    colors = np.asarray(colors, dtype=np.intp)
    if colors.shape[-1:] != (len(r),) or (colors < 0).any():
        raise ValueError("class indices do not cover the rate vector's links exactly")
    peak = np.zeros(colors.shape[:-1] + (colors.max(initial=-1) + 1,), dtype=object)
    np.maximum.at(peak, (*np.indices(colors.shape)[:-1], colors),
                  np.array(r.rates, dtype=object))
    return np.asarray(peak.sum(axis=-1), dtype=object).tolist()


def no_schedule_slots(r: RateVector) -> int:
    """Slots with no spatial reuse at all: one link activation per slot."""
    return r.total()
