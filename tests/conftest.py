"""Shared helpers: the canonical three-link instance and the simple reference
implementations that the library's fast paths are tested against."""

import heapq
import itertools
import math

import numpy as np
import pytest

from softsched import (
    ConflictGraph,
    ConflictParams,
    FpState,
    GameSolution,
    Link,
    Node,
    PropagationParams,
    RateVector,
    Schedule,
    ScheduleCheck,
    SolverConfig,
)

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


def brute_force_components(g: ConflictGraph):
    """Every nonempty independent set, by sweeping all 2^L subsets."""
    out = []
    for mask in range(1, 2 ** g.n_links):
        members = tuple(i for i in range(g.n_links) if mask >> i & 1)
        if independent_in(g.adjacency, members):
            out.append(members)
    out.sort(key=lambda m: (len(m), m))
    return out


def brute_force_maximal(g: ConflictGraph):
    """Maximal independent sets by exhaustive subset enumeration."""
    all_sets = [frozenset(m) for m in brute_force_components(g)]
    maximal = [s for s in all_sets if not any(s < t for t in all_sets)]
    return sorted((tuple(sorted(s)) for s in maximal), key=lambda m: (len(m), m))


def vertex_enumeration_value(H):
    """Exact game value by enumerating the vertices of max t s.t. Hy >= t, sum(y) = 1, y >= 0.

    Every support K of y paired with an equal-sized set T of tight rows gives
    a square linear system; its feasible solutions are the polytope's
    vertices and the value is the best of theirs. Exponential in the matrix size.

    The tolerances below are absolute, so the vertices are those of H scaled
    to a largest entry of 1; the value scales back with H.
    """
    feas_tol = 1e-10  # slack when testing vertex candidates for feasibility
    det_tol = 1e-12   # singularity filter for candidate basis systems
    scale = H.h.max()
    h = H.h / scale
    n_links, n_comps = h.shape
    best = -math.inf
    for s in range(1, min(n_links, n_comps) + 1):
        supports = np.array(list(itertools.combinations(range(n_comps), s)))
        rhs = np.zeros(s + 1)
        rhs[s] = 1.0
        for tight in itertools.combinations(range(n_links), s):
            # One system per support: rows `tight` of H restricted to the
            # support equal t, and the support sums to one.
            systems = np.zeros((len(supports), s + 1, s + 1))
            systems[:, :s, :s] = h[np.asarray(tight)][:, supports].transpose(1, 0, 2)
            systems[:, :s, s] = -1.0
            systems[:, s, :s] = 1.0
            solvable = np.abs(np.linalg.det(systems)) > det_tol
            if not solvable.any():
                continue
            solutions = np.linalg.solve(systems[solvable], rhs)
            y_support = solutions[:, :s]
            t = solutions[:, s]
            left = h[:, supports[solvable]].transpose(1, 0, 2)  # (n_sys, I, s)
            row_values = np.einsum("nis,ns->ni", left, y_support)
            feasible = (y_support >= -feas_tol).all(axis=1) & (
                row_values >= t[:, None] - feas_tol
            ).all(axis=1)
            if feasible.any():
                best = max(best, float(t[feasible].max()))
    if best == -math.inf:
        raise RuntimeError("no feasible vertex found; payoff matrix is malformed")
    return best * scale


def received_power_db(tx: Node, rx_pos, params: PropagationParams) -> float:
    """Received power in dB at ``rx_pos`` from transmitter ``tx``.

    tx_power_db - 10 * alpha * log10(max(d, d_min)); the proportionality
    constant of the path-loss law is unity, which cancels in the dB
    comparisons the conflict test performs.
    """
    d = math.dist(tx.position, rx_pos)
    return tx.tx_power_db - 10.0 * params.alpha * math.log10(max(d, params.d_min))


def physically_adjacent(a: Link, b: Link) -> bool:
    """True when the two links share a node (including a link with itself)."""
    return bool({a.tx, a.rx} & {b.tx, b.rx})


def interference_adjacent(a: Link, b: Link, nodes: list[Node],
                          params: ConflictParams) -> bool:
    """Margin test for node-disjoint links a and b.

    At b's receiver, a's transmitter is the interferer; at a's receiver, b's
    transmitter is. The pair conflicts if either desired signal fails to
    exceed the interference by more than beta_db. Testing both receivers
    makes the relation symmetric.
    """
    p = params.propagation
    own_b = received_power_db(nodes[b.tx], nodes[b.rx].position, p)
    other_at_b = received_power_db(nodes[a.tx], nodes[b.rx].position, p)
    if own_b <= other_at_b + params.beta_db:
        return True
    own_a = received_power_db(nodes[a.tx], nodes[a.rx].position, p)
    other_at_a = received_power_db(nodes[b.tx], nodes[a.rx].position, p)
    return own_a <= other_at_a + params.beta_db


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


def fp_reference(H, cfg=None, log_bounds=False):
    """Fictitious play with dense numpy updates of both accumulators every iteration.

    Stops on the running minimum of the upper bounds, whose iteration's
    link-player counts give x.
    """
    cfg = cfg or SolverConfig()
    rows = [np.ascontiguousarray(row) for row in H.h]
    cols = [np.ascontiguousarray(col) for col in H.h.T]
    n_links, n_comps = H.h.shape

    x_acc = cols[0].copy()
    col_counts = np.zeros(n_comps, dtype=np.int64)
    col_counts[0] = 1
    y_acc = np.zeros(n_comps)
    row_counts = np.zeros(n_links, dtype=np.int64)
    log = [] if log_bounds else None

    k = 0
    converged = False
    upper_min = math.inf
    i_next = x_acc.argmin()
    while k < cfg.max_iterations:
        k += 1
        i_k = i_next
        row_counts[i_k] += 1
        y_acc += rows[i_k]
        j_k = y_acc.argmax()
        upper = y_acc[j_k] / k
        if upper < upper_min:
            upper_min, k_min, row_counts_min = upper, k, row_counts.copy()
        col_counts[j_k] += 1
        x_acc += cols[j_k]
        i_next = x_acc.argmin()
        lower = x_acc[i_next] / (k + 1)
        if log is not None:
            log.append((float(lower), float(upper)))
        if upper_min - lower <= cfg.delta:
            converged = True
            break

    state = FpState(x_acc, y_acc, row_counts, col_counts, k, int(i_k), int(j_k))
    return GameSolution(
        x=row_counts_min / k_min,
        y=col_counts / (k + 1),
        value_lower=float(lower),
        value_upper=float(upper_min),
        iterations=k,
        converged=converged,
        state=state,
        bounds_log=log,
    )


def extract_schedule_reference(components, r, y, value_lower):
    """Schedule rounding whose trim pass drops one slot at a time."""
    y = np.asarray(y, dtype=float)
    target = math.ceil(1.0 / value_lower - 1e-9)
    quotas = y * target
    counts = np.floor(quotas).astype(int)
    leftover = target - int(counts.sum())
    by_remainder = np.argsort(-(quotas - counts), kind="stable")
    for j in by_remainder[:leftover]:
        counts[j] += 1

    served = np.zeros(len(r), dtype=int)
    for j, comp in enumerate(components):
        if counts[j]:
            served[list(comp.members)] += counts[j]

    rates = np.asarray(r.rates)
    while (served < rates).any():
        under = served < rates
        coverage = [sum(under[i] for i in comp.members) for comp in components]
        j = int(np.argmax(coverage))
        if coverage[j] == 0:
            missing = int(np.flatnonzero(under)[0])
            raise ValueError(f"no component covers underserved link {missing}")
        counts[j] += 1
        served[list(components[j].members)] += 1

    for j in range(len(components) - 1, -1, -1):
        members = list(components[j].members)
        while counts[j] and (served[members] - 1 >= rates[members]).all():
            counts[j] -= 1
            served[members] -= 1

    slots = tuple(j for j in range(len(components)) for _ in range(counts[j]))
    return Schedule(slots, tuple(int(v) for v in served), tuple(components))


def verify_schedule_reference(s, g, r):
    """Schedule check that tests every member pair of every slot's component."""
    served = np.zeros(len(r), dtype=int)
    for slot_idx, comp_idx in enumerate(s.slots):
        members = s.components[comp_idx].members
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1:]:
                if g.adjacency[a, b]:
                    return ScheduleCheck(
                        False, f"slot {slot_idx} activates conflicting links {a} and {b}"
                    )
        served[list(members)] += 1
    for i in range(len(r)):
        if served[i] < r[i]:
            return ScheduleCheck(
                False, f"link {i} served {int(served[i])} times but requires {r[i]}"
            )
    return ScheduleCheck(True)


def dijkstra_reference(nodes, source, sink, alpha):
    """Minimum-power path that recomputes each hop cost when it relaxes the hop."""
    heap = [(0.0, 0, (source,))]
    settled = set()
    while heap:
        cost, hops, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == sink:
            return list(path)
        for v in range(len(nodes)):
            if v == u or v in settled:
                continue
            hop = math.dist(nodes[u].position, nodes[v].position) ** alpha
            heapq.heappush(heap, (cost + hop, hops + 1, path + (v,)))
    raise RuntimeError(f"no path from {source} to {sink}")
