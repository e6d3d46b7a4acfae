"""Topology components: conflict-free link sets and their enumeration.

A component is any set of links that can all be activated in the same slot,
i.e. an independent set of the conflict graph. Scheduling only ever needs
the maximal components, since a component contained in a larger one is
dominated in the scheduling game, so ``enumerate_maximal`` is the only
enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if list(self.members) != sorted(set(self.members)):
            raise ValueError(f"members must be sorted and distinct, got {self.members}")


def enumerate_maximal(g: ConflictGraph, cap: int = DEFAULT_COMPONENT_CAP) -> list[Component]:
    """Maximal components of g, via Bron-Kerbosch with pivoting on the complement graph.

    A maximal independent set of the conflict graph is a maximal clique of
    its complement. Output order is canonical: by size, then lexicographic
    by member list.
    """
    # Complement-graph neighbourhoods: links that may share a slot with i.
    compat = [
        frozenset(j for j in range(g.n_links) if j != i and not g.adjacency[i, j])
        for i in range(g.n_links)
    ]
    found: list[tuple[int, ...]] = []

    def expand(chosen: list[int], candidates: set[int], excluded: set[int]):
        if not candidates and not excluded:
            if len(found) >= cap:
                raise ResourceLimitError(
                    f"component count exceeds the cap of {cap}; raise the cap to proceed"
                )
            found.append(tuple(sorted(chosen)))
            return
        pivot = min(
            candidates | excluded,
            key=lambda u: (-len(candidates & compat[u]), u),
        )
        for v in sorted(candidates - compat[pivot]):
            expand(chosen + [v], candidates & compat[v], excluded & compat[v])
            candidates.remove(v)
            excluded.add(v)

    expand([], set(range(g.n_links)), set())
    found.sort(key=lambda members: (len(members), members))
    return [Component(members) for members in found]
