"""Shared helpers: the canonical three-link instance and brute-force oracles."""

import itertools

import numpy as np
import pytest

from softsched import ConflictGraph, RateVector, interference_adjacent, physically_adjacent

# Three links where link 0 is compatible with both others but links 1 and 2
# conflict. With rates (3, 1, 2) the best hard coloring needs 4 slots while
# a soft schedule needs 3, which makes this the standard smoke instance.
THREE_LINK_RATES = RateVector((3, 1, 2))


def three_link_graph() -> ConflictGraph:
    return ConflictGraph.from_pairs(3, [(1, 2)])


@pytest.fixture
def three_link():
    return three_link_graph(), THREE_LINK_RATES


def random_conflict_graph(rng, n_links: int, p: float) -> ConflictGraph:
    adj = np.eye(n_links, dtype=bool)
    for i in range(n_links):
        for j in range(i + 1, n_links):
            adj[i, j] = adj[j, i] = bool(rng.random() < p)
    return ConflictGraph(n_links, adj)


def independent_in(adj: np.ndarray, members) -> bool:
    return all(
        not adj[a, b] for a, b in itertools.combinations(members, 2)
    )


def brute_force_components(g: ConflictGraph, max_generation=None):
    """Every nonempty independent set, by sweeping all 2^L subsets."""
    out = []
    for mask in range(1, 2 ** g.n_links):
        members = tuple(i for i in range(g.n_links) if mask >> i & 1)
        if max_generation is not None and len(members) > max_generation:
            continue
        if independent_in(g.adjacency, members):
            out.append(members)
    out.sort(key=lambda m: (len(m), m))
    return out


def brute_force_maximal(g: ConflictGraph):
    """Maximal independent sets by exhaustive subset enumeration."""
    all_sets = [frozenset(m) for m in brute_force_components(g)]
    maximal = [s for s in all_sets if not any(s < t for t in all_sets)]
    return sorted((tuple(sorted(s)) for s in maximal), key=lambda m: (len(m), m))


def pairwise_conflict_graph(links, nodes, params) -> ConflictGraph:
    """Conflict graph by applying the scalar pair tests to every link pair."""
    n = len(links)
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = physically_adjacent(links[i], links[j]) or (
                interference_adjacent(links[i], links[j], nodes, params)
            )
    return ConflictGraph(n, adj)


def first_fit_classes(g: ConflictGraph, order):
    """Greedy first-fit classes, testing every member of a class pairwise."""
    classes = []
    for link in order:
        for cls in classes:
            if not any(g.adjacency[link, member] for member in cls):
                cls.append(link)
                break
        else:
            classes.append([link])
    return tuple(tuple(sorted(cls)) for cls in classes)
