"""Shared helpers: the canonical three-link instance and the simple reference
implementations that the library's fast paths are tested against."""

import heapq
import itertools
import math
import operator

import numpy as np
import pytest

from softsched import (
    Component,
    ConflictGraph,
    FpState,
    GameSolution,
    Link,
    Node,
    PropagationParams,
    RateVector,
    ResourceLimitError,
    ResultRecord,
    Schedule,
    ScheduleCheck,
    Session,
    SolverConfig,
    accumulate_rates,
    build_conflict_graph,
    build_payoff,
    coloring_slots,
    enumerate_maximal,
    extract_schedule,
    fp_solve,
    greedy_color,
    link_powers,
    route_sessions,
)
from softsched.conflict import D_MIN
from softsched.harness import _derive_streams, _positive_poisson

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


def enumerate_maximal_reference(g: ConflictGraph, cap: int = 100_000):
    """Bron-Kerbosch with pivoting on the complement graph, over frozensets of links.

    The pivot is the link with the most candidates among its complement
    neighbours, lowest index first; the links it leaves out are expanded in
    ascending order. Members come back by size, then lexicographically; more
    than cap components raise ResourceLimitError.
    """
    compat = [frozenset((~row).nonzero()[0].tolist()) for row in g.adjacency]
    found: list[tuple[int, ...]] = []

    def expand(chosen: list[int], candidates: set[int], excluded: set[int]):
        if not candidates and not excluded:
            if len(found) >= cap:
                raise ResourceLimitError(f"component count exceeds the cap of {cap}")
            found.append(tuple(sorted(chosen)))
            return
        pivot = min(candidates | excluded, key=lambda u: (-len(candidates & compat[u]), u))
        for v in sorted(candidates - compat[pivot]):
            expand(chosen + [v], candidates & compat[v], excluded & compat[v])
            candidates.remove(v)
            excluded.add(v)

    expand([], set(range(g.n_links)), set())
    found.sort(key=lambda members: (len(members), members))
    return [Component(members) for members in found]


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

    tx_power_db - 10 * alpha * log10(max(d, D_MIN)); the proportionality
    constant of the path-loss law is unity, which cancels in the dB
    comparisons the conflict test performs.
    """
    d = math.dist(tx.position, rx_pos)
    return tx.tx_power_db - 10.0 * params.alpha * math.log10(max(d, D_MIN))


def physically_adjacent(a: Link, b: Link) -> bool:
    """True when the two links share a node (including a link with itself)."""
    return bool({a.tx, a.rx} & {b.tx, b.rx})


def interference_adjacent(a: Link, b: Link, nodes: list[Node], beta_db: float,
                          p: PropagationParams = PropagationParams()) -> bool:
    """Margin test for node-disjoint links a and b.

    At b's receiver, a's transmitter is the interferer; at a's receiver, b's
    transmitter is. The pair conflicts if either desired signal fails to
    exceed the interference by more than beta_db. Testing both receivers
    makes the relation symmetric.
    """
    own_b = received_power_db(nodes[b.tx], nodes[b.rx].position, p)
    other_at_b = received_power_db(nodes[a.tx], nodes[b.rx].position, p)
    if own_b <= other_at_b + beta_db:
        return True
    own_a = received_power_db(nodes[a.tx], nodes[a.rx].position, p)
    other_at_a = received_power_db(nodes[b.tx], nodes[a.rx].position, p)
    return own_a <= other_at_a + beta_db


def pairwise_conflict_graph(links, nodes, beta_db, p=PropagationParams()) -> ConflictGraph:
    """Conflict graph by applying the scalar pair tests to every link pair."""
    n = len(links)
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = physically_adjacent(links[i], links[j]) or (
                interference_adjacent(links[i], links[j], nodes, beta_db, p)
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


def max_coloring_slots_reference(g: ConflictGraph, rates) -> int:
    """Fewest slots of any hard coloring: the exact max-coloring optimum, by MILP.

    A coloring's slot count is the sum over its classes of the class's
    largest rate. With at most L classes, x[i, c] puts link i in class c,
    conflicting links never share a class and w[c] >= rates[i] x[i, c] is
    class c's slot count; the optimum minimizes sum(w). Numbering the
    classes by their lowest link lets link i use only classes 0..i.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = g.n_links
    x = np.arange(n * n).reshape(n, n)  # x[i, c]; w[c] follows at n * n + c
    rows, lower, upper = [], [], []

    def row(coefs, lo, hi):
        r = np.zeros(n * n + n)
        for k, v in coefs:
            r[k] += v
        rows.append(r)
        lower.append(lo)
        upper.append(hi)

    for i in range(n):
        row([(x[i, c], 1) for c in range(n)], 1, 1)
        for c in range(n):
            row([(x[i, c], rates[i]), (n * n + c, -1)], -np.inf, 0)
    for i, j in zip(*np.nonzero(np.triu(g.adjacency, 1))):
        for c in range(n):
            row([(x[i, c], 1), (x[j, c], 1)], -np.inf, 1)
    cost = np.r_[np.zeros(n * n), np.ones(n)]
    res = milp(cost, constraints=LinearConstraint(np.array(rows), lower, upper),
               integrality=np.ones(n * n + n),
               bounds=Bounds(0, np.r_[np.tri(n).ravel(), np.full(n, max(rates))]))
    assert res.success, res.message
    return round(res.fun)


def write_csv_reference(rows, header: str, path) -> None:
    """The sweep CSV writer, one cell at a time: ``header``, then a line per row.

    None is empty, bools are true/false, floats take 9 significant digits
    and everything else is ``str``; lines end in LF.
    """
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.9g}"
        return str(value)

    cells = operator.attrgetter(*header.split(","))
    lines = [header, *(",".join(map(cell, cells(row))) for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def lp_oracle(H):
    """Exact game value and optimal component strategy, independent of fictitious play.

    With u = y / v the game max_y min_i (Hy)_i becomes the linear program
    min sum(u) s.t. Hu >= 1, u >= 0, which HiGHS solves at any size. Its
    optimum sum(u) = 1/v is the fractional schedule length, and y = u / sum(u).
    Every row of H has a positive entry, so the program is feasible and bounded.
    Each row goes to HiGHS over its largest entry, with that entry's
    reciprocal on the right (build_payoff's 0/1 membership and the rates):
    the same u, without entries 1/r so small that HiGHS would drop them.
    """
    from scipy.optimize import linprog

    scale = H.h.max(axis=1)
    res = linprog(np.ones(H.n_components), A_ub=-H.h / scale[:, None], b_ub=-1.0 / scale,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the game: {res.message}")
    u = np.maximum(res.x, 0.0)  # HiGHS may return a zero entry as about -1e-15
    length = float(u.sum())
    return 1.0 / length, u / length


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


def assert_same_solution(got, want):
    """Field-for-field equality, floats bit for bit."""
    for name in ("x", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.value_lower.hex() == want.value_lower.hex()
    assert got.value_upper.hex() == want.value_upper.hex()
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    for name in ("x_acc", "y_acc", "row_counts", "col_counts"):
        a, b = getattr(got.state, name), getattr(want.state, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.state.k, got.state.last_row, got.state.last_col) == (
        want.state.k, want.state.last_row, want.state.last_col)
    assert type(got.state.last_row) is int and type(got.state.last_col) is int
    if want.bounds_log is None:
        assert got.bounds_log is None
    else:
        assert [(l.hex(), u.hex()) for l, u in got.bounds_log] == [
            (l.hex(), u.hex()) for l, u in want.bounds_log]


def finish_exact_reference(H, budget=1):
    """The exact finish of one game from its payoff alone: column generation over a warm master.

    A game of at most four columns per link opens its pool with all of
    them; a wider one with the first covering column of each link. The first master starts from greedy_clique_reference's rows and
    crash_columns_reference's columns and is solved by
    dual_simplex_reference. Each pricing round appends the columns it adds,
    the most negative first, to that master's optimal tableau, just before
    the surpluses, as B^-1 (-a_j) with reduced cost 1 - z . a_j, and
    primal_simplex_reference finishes the round. Every sum over rows or
    columns runs in index order, as finish_exact's do. budget is the
    game's Dantzig pivots per row plus column before Bland's rule.
    iterations counts the masters solved, and converged is True.
    """
    h = H.h
    scale = h.max(axis=1)
    A, b = h / scale[:, None], 1.0 / scale
    in_pool = np.full(H.n_components, H.n_components <= 4 * H.n_links)
    in_pool[np.argmax(A > 0, axis=1)] = True
    clique = greedy_clique_reference(A, b)
    pool = np.flatnonzero(in_pool)  # the master's columns, in tableau order
    a = A[:, pool]
    t, basis, _ = dual_simplex_reference(a, b, clique, crash_columns_reference(a, b, clique),
                                         budget)
    masters = 1
    while True:
        n_cols = len(pool)
        z = np.maximum(t[-1, n_cols:-1], 0.0) + 0.0
        reduced = 1.0 - np.add.accumulate(z[:, None] * A)[-1]
        reduced[pool] = 0.0
        entering = np.flatnonzero(reduced < -1e-9)
        if not entering.size:
            break
        entering = entering[np.argsort(reduced[entering], kind="stable")[:H.n_links]]
        new = -np.add.accumulate(t[:, n_cols:-1, None] * A[:, entering], axis=1)[:, -1]
        new[-1] += 1.0
        t = np.hstack([t[:, :n_cols], new, t[:, n_cols:]])
        basis[basis >= n_cols] += len(entering)
        pool = np.append(pool, entering)
        primal_simplex_reference(t, basis, budget)
        masters += 1
    values = np.zeros(t.shape[1] - 1)
    values[basis] = t[:-1, -1]
    u = np.maximum(values[:n_cols], 0.0) + 0.0
    y = np.zeros(H.n_components)
    y[pool] = u / np.add.accumulate(u)[-1]
    w = z / scale
    x = w / np.add.accumulate(w)[-1]
    upper = float((x @ h).max())
    return GameSolution(x=x, y=y, value_lower=min(float((h @ y).min()), upper),
                        value_upper=upper, iterations=masters, converged=True)


def greedy_clique_reference(A, b):
    """Rows that no column of A holds two of, taken largest b first, lowest index on ties."""
    held = A > 0
    clique = []
    for i in sorted(range(len(b)), key=lambda i: (-b[i], i)):
        if not (held[i] & held[clique].any(axis=0)).any():
            clique.append(i)
    return clique


def crash_columns_reference(a, b, rows):
    """For each row s, the column maximising a[s]; ties: largest b . a[:, j], then lowest index."""
    weight = (b[:, None] * a).sum(axis=0)
    cols = []
    for s in rows:
        best = np.flatnonzero(a[s] == a[s].max())
        cols.append(int(best[np.argmax(weight[best])]))
    return cols


def pivot_reference(t, basis, r, q):
    """Pivot the one-game tableau t on row r and column q, in place."""
    p = t[r] / t[r, q]
    t[:] -= t[:, q, None] * p
    t[r] = p
    basis[r] = q


def dual_simplex_reference(a, b, rows, cols, budget=1):
    """min sum(u) s.t. a @ u >= b, u >= 0 on one (L, C) matrix: a crash, then a dual simplex.

    The crash pivots column cols[k] into row rows[k], one pivot at a time.
    Then the short row of most negative right side leaves (Dantzig), the
    lowest on ties, until the pivots reach budget (L + C); from there the
    lowest-indexed short basic variable (Bland). The lowest-indexed column
    of least ratio enters. Returns the tableau (columns: the C structurals,
    the L surpluses, the right side; last row: the reduced costs), the
    basis and the number of pivots after the crash.
    """
    n_rows, n_cols = a.shape
    t = np.vstack([np.hstack([-a, np.eye(n_rows), -b[:, None]]),
                   np.concatenate([np.ones(n_cols), np.zeros(n_rows + 1)])])
    basis = np.arange(n_cols, n_cols + n_rows)
    for r, q in zip(rows, cols):
        pivot_reference(t, basis, r, q)
    pivots = 0
    while (short := t[:-1, -1] < np.abs(t[:-1, n_cols:-1]) @ (-1e-12 * b)).any():
        if pivots < budget * (n_rows + n_cols):
            r = np.where(short, t[:-1, -1], np.inf).argmin()
        else:
            r = np.where(short, basis, n_cols + n_rows).argmin()
        row = t[r, :-1]
        ratios = np.divide(t[-1, :-1], -row, out=np.full(row.shape, np.inf), where=row < -1e-9)
        pivot_reference(t, basis, r, ratios.argmin())
        pivots += 1
    return t, basis, pivots


def primal_simplex_reference(t, basis, budget=1):
    """Primal simplex steps on a primal feasible tableau laid out as dual_simplex_reference's.

    The most negative reduced cost below -1e-9 enters (Dantzig), the lowest
    column on ties, and the row of least ratio over entries above 1e-9
    leaves, the lowest on ties, until the pivots reach budget times the
    tableau's rows plus columns; from there the lowest-indexed column below
    -1e-9 enters and, among the rows of least ratio, the lowest-indexed
    basic variable leaves (Bland). Returns the number of pivots.
    """
    pivots = 0
    while (entering := t[-1, :-1] < -1e-9).any():
        bland = pivots >= budget * (t.shape[1] - 1)
        q = np.flatnonzero(entering)[0] if bland else t[-1, :-1].argmin()
        col = t[:-1, q]
        ratios = np.divide(t[:-1, -1], col, out=np.full(col.shape, np.inf), where=col > 1e-9)
        least = np.flatnonzero(ratios == ratios.min())
        pivot_reference(t, basis, least[np.argmin(basis[least])] if bland else least[0], q)
        pivots += 1
    return pivots


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
        if comp_idx not in range(len(s.components)):
            return ScheduleCheck(False, f"slot {slot_idx} names component {comp_idx}, "
                                        f"outside 0..{len(s.components) - 1}")
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


def peel_reference(g, rates):
    """The links that conflict with no other link kept, with their graph and rates.

    Returns (keep, peeled, rest, rest_rates): the indices of the links that
    some other link can share a slot with, the rates' sum of the others
    (each must fire alone), and the kept links' graph and rates.
    """
    keep = [i for i in range(g.n_links) if not g.adjacency[i].all()]
    peeled = sum(rates[i] for i in range(g.n_links) if i not in keep)
    rest = ConflictGraph(len(keep), g.adjacency[np.ix_(keep, keep)])
    return keep, peeled, rest, RateVector(tuple(rates[i] for i in keep))


def counted_schedule(components, counts, rates):
    """The schedule that fills counts[j] slots with components[j], in order, and what it serves."""
    served = [0] * len(rates)
    for comp, count in zip(components, counts):
        for i in comp.members:
            served[i] += count
    slots = tuple(j for j, count in enumerate(counts) for _ in range(count))
    return Schedule(slots, tuple(served), tuple(components))


def unpeel_schedule(schedule, keep, rates):
    """A schedule of the whole graph: the kept links' schedule plus every other link's own slots."""
    alone = [i for i in range(len(rates)) if i not in keep]
    comps = [Component(tuple(keep[i] for i in c.members)) for c in schedule.components]
    slots = list(schedule.slots)
    for k, i in enumerate(alone):
        comps.append(Component((i,)))
        slots += [len(schedule.components) + k] * rates[i]
    served = [0] * len(rates)
    for i, count in zip(keep, schedule.served):
        served[i] = count
    for i in alone:
        served[i] = rates[i]
    return Schedule(tuple(slots), tuple(served), tuple(comps))


def certified_schedule_reference(g, r):
    """First fit slot by slot, certified by the heaviest clique of an exhaustive search.

    Links go in decreasing conflict degree, lowest index on ties; each
    takes, from slot 0 up, every slot that no conflicting link placed
    before it holds, until it holds r_i of them. T is the number of slots
    used. The clique weight is the largest rate sum over every subset of
    links that pairwise conflict, each grown one link at a time from the
    subsets below it. When that weight is T, returns the distinct slot sets
    in order of first slot and the number of slots each fills; else None.
    """
    n, adj = g.n_links, g.adjacency
    order = sorted(range(n), key=lambda i: (-int(adj[i].sum()), i))
    slots = [set() for _ in range(n)]
    for i in order:
        slot = 0
        while len(slots[i]) < r[i]:
            if not any(slot in slots[j] for j in range(n) if j != i and adj[i, j]):
                slots[i].add(slot)
            slot += 1
    n_slots = 1 + max(max(held) for held in slots)

    heaviest, subsets = 0, [((), 0)]
    while subsets:
        grown = []
        for members, weight in subsets:
            heaviest = max(heaviest, weight)
            for i in range(members[-1] + 1 if members else 0, n):
                if all(adj[i, j] for j in members):
                    grown.append((members + (i,), weight + r[i]))
        subsets = grown
    if heaviest != n_slots:
        return None
    counts = {}
    for slot in range(n_slots):
        members = tuple(i for i in range(n) if slot in slots[i])
        counts[members] = counts.get(members, 0) + 1
    return [Component(members) for members in counts], list(counts.values())


def run_instance_reference(cfg, run_id, fixture=None):
    """``run_instance`` with nothing shared between margins.

    Each margin builds its own graph with ``build_conflict_graph``, peels
    the links that conflict with every link (``peel_reference``) and
    solves the soft game on the rest. Fictitious play at delta 1e-1 gives
    the iteration fields and nothing else. When ``certified_schedule_reference`` certifies
    a first-fit schedule of T slots, that is the schedule and both bounds
    are 1/T; otherwise the exact finish of that one game gives the bounds
    and ``extract_schedule`` the schedule. The record adds the peeled rates
    to the slots and maps each bound v to 1 / (peeled + 1/v). Coloring is
    ``greedy_color`` in index order on that graph and no reuse is the
    rates' sum. Every soft schedule, with the peeled links' own slots
    added, must pass ``verify_schedule_reference`` on the whole graph.
    """
    if fixture is not None and fixture.kind == "conflict":
        rates, margins = fixture.rates, [(math.nan, fixture.graph)]
        instance = dict(run_id=run_id, n_nodes=0, n_sessions=0, total_packets=rates.total())
    else:
        if fixture is None:
            nodes, sessions = generate_instance_reference(cfg, run_id)
        else:
            nodes, sessions = list(fixture.nodes), list(fixture.sessions)
        params = PropagationParams(alpha=cfg.alpha)
        links, rates = accumulate_rates(route_sessions(nodes, sessions, params), sessions)
        powers = link_powers(links, nodes, params)
        margins = [(beta, build_conflict_graph(powers, beta)) for beta in cfg.beta_values()]
        instance = dict(run_id=run_id, n_nodes=len(nodes), n_sessions=len(sessions),
                        total_packets=sum(s.packets for s in sessions))
    records = []
    for beta, g in margins:
        for mode in cfg.modes:
            extra = {}
            if mode == "soft":
                keep, peeled, rest, rest_rates = peel_reference(g, rates)
                if not keep:
                    extra = dict(value_lower=1 / peeled, value_upper=1 / peeled,
                                 fp_iterations=0, converged=True)
                    slots = peeled
                else:
                    comps = enumerate_maximal(rest)
                    H = build_payoff(comps, rest_rates)
                    fp = fp_solve(H, SolverConfig(delta=1e-1))
                    certified = certified_schedule_reference(rest, rest_rates)
                    if certified is None:
                        sol = finish_exact_reference(H)
                        lower, upper = sol.value_lower, sol.value_upper
                        schedule = extract_schedule(comps, rest_rates, sol.y, lower)
                    else:
                        schedule = counted_schedule(*certified, rest_rates)
                        lower = upper = 1 / schedule.length
                    extra = dict(value_lower=lower, value_upper=upper,
                                 fp_iterations=fp.iterations, converged=fp.converged)
                    check = verify_schedule_reference(unpeel_schedule(schedule, keep, rates), g,
                                                      rates)
                    assert check, check.violation
                    slots = peeled + schedule.length
                    if peeled:
                        for bound in ("value_lower", "value_upper"):
                            extra[bound] = 1 / (peeled + 1 / extra[bound])
            elif mode == "coloring":
                slots = coloring_slots(greedy_color(g, list(range(g.n_links))).colors, rates)
            else:
                slots = rates.total()
            records.append(ResultRecord(
                mode=mode, beta_db=beta, slots=slots, total_link_activations=rates.total(),
                avg_slots_per_packet=slots / instance["total_packets"], **instance, **extra,
            ))
    return records


def generate_instance_reference(cfg, run_id):
    """A replication's nodes and sessions, each pick indexing a list of every ordered pair."""
    node_seed, pair_seed, packet_seed = _derive_streams(cfg.seed, run_id)
    coords = np.random.default_rng(node_seed).random((cfg.n_nodes, 2))
    nodes = [Node(i, (float(x), float(y))) for i, (x, y) in enumerate(coords)]
    ordered_pairs = [
        (i, j) for i in range(cfg.n_nodes) for j in range(cfg.n_nodes) if i != j
    ]
    pair_rng = np.random.default_rng(pair_seed)
    picks = pair_rng.choice(len(ordered_pairs), size=cfg.n_sessions, replace=False)
    packet_rng = np.random.default_rng(packet_seed)
    sessions = [
        Session(*ordered_pairs[int(p)], _positive_poisson(packet_rng, cfg.poisson_mean))
        for p in picks
    ]
    return nodes, sessions


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
