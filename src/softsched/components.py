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
    sorts). More than cap components raise ResourceLimitError, when the
    (cap + 1)-th is found. A graph with no links has no component and
    raises ValueError.
    """
    if not g.n_links:
        raise ValueError("a conflict graph with no links has no components")
    # Complement-graph neighbourhoods: links that may share a slot with i
    # (the true diagonal keeps i itself out).
    packed = np.packbits(~g.adjacency, axis=1, bitorder="little")
    compat = [int.from_bytes(row.tobytes(), "little") for row in packed]
    found: list[int] = []
    _expand(compat, found, cap, 0, (1 << g.n_links) - 1, 0)
    members = sorted(map(_links, found))
    members.sort(key=len)  # stable, so lexicographic within each size
    return [Component(m) for m in members]


def _expand(compat: list[int], found: list[int], cap: int,
            chosen: int, candidates: int, excluded: int) -> None:
    """One Bron-Kerbosch call: append to found every maximal clique extending chosen.

    At least one of candidates and excluded is nonempty. A branch that
    leaves both empty has completed a maximal clique: this call appends it,
    checking the cap first, rather than making a call of its own for it.
    """
    most = -1
    for u in _links(candidates | excluded):
        n = (candidates & compat[u]).bit_count()
        if n > most:
            pivot, most = u, n
    for v in _links(candidates & ~compat[pivot]):
        bit = 1 << v
        sub_candidates, sub_excluded = candidates & compat[v], excluded & compat[v]
        if sub_candidates or sub_excluded:
            _expand(compat, found, cap, chosen | bit, sub_candidates, sub_excluded)
        elif len(found) >= cap:
            raise ResourceLimitError(
                f"component count exceeds the cap of {cap}; raise the cap to proceed"
            )
        else:
            found.append(chosen | bit)
        candidates ^= bit
        excluded |= bit


# _BYTE_LINKS[n][b]: the links that byte value b sets in byte n of a bitset
# (links 8n to 8n + 7), ascending, for the first _TABLE_LINKS links (about
# 330 KB).
_TABLE_LINKS = 128
_BYTE_BITS = tuple(tuple(p for p in range(8) if b >> p & 1) for b in range(256))
_BYTE_LINKS = tuple(tuple(tuple([k + p for p in bits]) for bits in _BYTE_BITS)
                    for k in range(0, _TABLE_LINKS, 8))


def _links(bits: int) -> tuple[int, ...]:
    """The set bits of a nonnegative int, ascending: one table lookup per byte.

    Links past the table's _TABLE_LINKS come from the same lookups on the
    bits shifted down, offset back up.
    """
    out = ()
    for table in _BYTE_LINKS:
        if not bits:
            return out
        out += table[bits & 255]
        bits >>= 8
    return out + tuple(_TABLE_LINKS + i for i in _links(bits))
