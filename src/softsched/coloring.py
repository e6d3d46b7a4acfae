"""Conventional greedy link coloring and the baseline slot-count metrics.

Hard coloring assigns each link to exactly one color class; all links of a
class fire together, so a class must be repeated as many slots as its
largest per-link rate. The greedy scheme is order-dependent, which is why
the processing order is an explicit argument.
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


def greedy_color(g: ConflictGraph, order: list[int]) -> Coloring:
    """First-fit coloring: each link joins the lowest class it does not conflict with.

    ``order`` must be a permutation of 0..L-1; the first link opens class 0,
    and a link that conflicts with every existing class opens a new one.
    Each adjacency row is packed into one Python int bitset, and each class
    keeps the OR of its members' rows as the mask of links it blocks, so the
    test for a link is one bit lookup per class; the order of tests and the
    classes are those of checking every member pairwise.
    """
    if sorted(order) != list(range(g.n_links)):
        raise ValueError(f"order must be a permutation of 0..{g.n_links - 1}")
    rows = [int.from_bytes(row, "little")
            for row in np.packbits(g.adjacency, axis=1, bitorder="little")]
    classes: list[list[int]] = []
    blocked: list[int] = []
    # int(): shifting a Python int wider than 63 bits by a numpy integer overflows.
    for link in map(int, order):
        for k, mask in enumerate(blocked):
            if not mask >> link & 1:
                classes[k].append(link)
                blocked[k] = mask | rows[link]
                break
        else:
            classes.append([link])
            blocked.append(rows[link])
    return Coloring(tuple(tuple(sorted(cls)) for cls in classes))


def coloring_slots(c: Coloring, r: RateVector) -> int:
    """Slots for a hard coloring: sum over classes of the largest class rate."""
    colored = sorted(link for cls in c.classes for link in cls)
    if colored != list(range(len(r))):
        raise ValueError("coloring does not cover the rate vector's links exactly")
    return sum(max(map(r.rates.__getitem__, cls)) for cls in c.classes)


def no_schedule_slots(r: RateVector) -> int:
    """Slots with no spatial reuse at all: one link activation per slot."""
    return r.total()
