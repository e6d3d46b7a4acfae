"""Conventional greedy link coloring and the baseline slot-count metrics.

Hard coloring assigns each link to exactly one color class; all links of a
class fire together, so a class must be repeated as many slots as its
largest per-link rate. The greedy scheme is order-dependent, which is why
the processing order is an explicit argument.

``first_fit_stack`` colors a whole B x L x L stack of conflict matrices in
one pass, the margins of a sweep side by side; ``greedy_color`` is that pass
on one graph in a given order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph
from .topology import RateVector


@dataclass(frozen=True)
class Coloring:
    """Ordered color classes; together they partition the link set."""

    classes: tuple[tuple[int, ...], ...]


def first_fit_stack(stack: np.ndarray) -> list[Coloring]:
    """First-fit coloring in link order of every matrix of a B x L x L stack.

    Link i takes the lowest color that none of links 0..i-1 it conflicts
    with holds. The loop runs over links with numpy across the B matrices:
    a link's earlier conflicts scatter their colors into a forbidden mask of
    i + 1 colors, which always has a free one, and ``argmin`` finds the
    first. Colors open in increasing order, so color k is the k-th class.
    """
    n_graphs, n_links = stack.shape[:2]
    colors = np.zeros((n_graphs, n_links), dtype=np.intp)
    for i in range(1, n_links):
        graph, earlier = np.nonzero(stack[:, i, :i])
        forbidden = np.zeros((n_graphs, i + 1), dtype=bool)
        forbidden[graph, colors[graph, earlier]] = True
        colors[:, i] = forbidden.argmin(axis=1)
    colorings = []
    for row in colors.tolist():
        classes = [[] for _ in range(max(row, default=-1) + 1)]
        for link, k in enumerate(row):
            classes[k].append(link)
        colorings.append(Coloring(tuple(map(tuple, classes))))
    return colorings


def greedy_color(g: ConflictGraph, order: list[int]) -> Coloring:
    """First-fit coloring: each link joins the lowest class it does not conflict with.

    ``order`` must be a permutation of 0..L-1; the first link opens class 0,
    and a link that conflicts with every existing class opens a new one.
    This is ``first_fit_stack`` on the adjacency permuted into ``order``.
    """
    if sorted(order) != list(range(g.n_links)):
        raise ValueError(f"order must be a permutation of 0..{g.n_links - 1}")
    order = np.asarray(order, dtype=np.intp)
    (c,) = first_fit_stack(g.adjacency[np.ix_(order, order)][None])
    link = order.tolist()
    return Coloring(tuple(tuple(sorted(link[i] for i in cls)) for cls in c.classes))


def coloring_slots(c: Coloring, r: RateVector) -> int:
    """Slots for a hard coloring: sum over classes of the largest class rate."""
    colored = sorted(link for cls in c.classes for link in cls)
    if colored != list(range(len(r))):
        raise ValueError("coloring does not cover the rate vector's links exactly")
    return sum(max(map(r.rates.__getitem__, cls)) for cls in c.classes)


def no_schedule_slots(r: RateVector) -> int:
    """Slots with no spatial reuse at all: one link activation per slot."""
    return r.total()
