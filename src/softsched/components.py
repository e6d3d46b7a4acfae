"""Topology components: conflict-free link sets and their enumeration.

A component is any set of links that can all be activated in the same slot,
i.e. an independent set of the conflict graph. Scheduling only ever needs
the maximal components, since a component contained in a larger one is
dominated in the scheduling game, so ``enumerate_maximal`` is the only
enumerator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph

DEFAULT_COMPONENT_CAP = 100_000


class ResourceLimitError(RuntimeError):
    """Raised when enumeration would exceed the configured component cap."""


@dataclass(frozen=True)
class Component:
    """Mutually non-conflicting links, stored as a sorted index tuple."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a component must contain at least one link")
        if not all(map(operator.lt, self.members, self.members[1:])):
            raise ValueError(f"members must be sorted and distinct, got {self.members}")


def enumerate_maximal(g: ConflictGraph, cap: int = DEFAULT_COMPONENT_CAP) -> list[Component]:
    """Maximal components of g, via Bron-Kerbosch with pivoting on the complement graph.

    A maximal independent set of the conflict graph is a maximal clique of
    its complement. Link sets are Python-int bitsets (bit i is link i); the
    pivot is the candidate or excluded link with the most candidates among
    its complement neighbours, lowest index first, and the links it leaves
    out are expanded in ascending order, by the module-level ``_expand``, not
    a closure, so a call leaves no reference cycle. Output order is
    canonical: by size, then lexicographic by member list (two stable
    sorts). More than cap components raise ResourceLimitError.
    """
    # Complement-graph neighbourhoods: links that may share a slot with i
    # (the true diagonal keeps i itself out).
    packed = np.packbits(~g.adjacency, axis=1, bitorder="little")
    compat = [int.from_bytes(row.tobytes(), "little") for row in packed]
    found: list[int] = []
    _expand(compat, found, cap, 0, (1 << g.n_links) - 1, 0)
    members = sorted(tuple(_links(chosen)) for chosen in found)
    members.sort(key=len)  # stable, so lexicographic within each size
    return [Component(m) for m in members]


def _expand(compat: list[int], found: list[int], cap: int,
            chosen: int, candidates: int, excluded: int) -> None:
    """One Bron-Kerbosch call: append to found every maximal clique extending chosen."""
    if not candidates and not excluded:
        if len(found) >= cap:
            raise ResourceLimitError(
                f"component count exceeds the cap of {cap}; raise the cap to proceed"
            )
        found.append(chosen)
        return
    most = -1
    for u in _links(candidates | excluded):
        n = (candidates & compat[u]).bit_count()
        if n > most:
            pivot, most = u, n
    for v in _links(candidates & ~compat[pivot]):
        _expand(compat, found, cap, chosen | 1 << v, candidates & compat[v], excluded & compat[v])
        candidates &= ~(1 << v)
        excluded |= 1 << v


def _links(bits: int) -> list[int]:
    """The set bits of an int, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out
