"""Link-vs-component matrix game: payoff, fictitious play, certificate, exact finish, schedules.

The scheduling problem is cast as a zero-sum game. Rows are links, columns
are components; the entry is 1/r_i when link i belongs to component j. A
mixed column strategy y is a recipe for how often to fire each component,
and (Hy)_i is the fraction of link i's demand served per slot, so the game
value v = max_y min_i (Hy)_i makes 1/v the minimal fractional schedule
length. The certificate needs no linear program: a first-fit multicoloring
of T slots that meets a clique of weight T (links that pairwise conflict,
rates summed) proves v = 1/T, and its slot sets, which need not be maximal
components, are the schedule. Fictitious play is the paper's solver, the
plain dense loop. The exact finish solves a game the certificate misses
from its payoff alone, over every column of a game with at most four per
link and each link's first covering column of a wider one, by a dual
simplex from a basis on a clique of links no component holds two of, then
adds priced columns, continuing from the last optimal basis by primal
simplex steps, until v is exact. The schedule extractor rounds y to slots.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .components import Component, _links
from .conflict import ConflictGraph
from .topology import RateVector


@dataclass(eq=False)
class PayoffMatrix:
    """I x J matrix with h[i, j] = 1/r_i if link i is in component j, else 0."""

    h: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.h.ndim != 2 or 0 in self.h.shape:
            raise ValueError(f"payoff matrix must be a nonempty 2-d array, got {self.h.shape}")
        if not (self.h.min() >= 0 and self.h.max() < math.inf):  # also rejects NaN
            raise ValueError("payoff entries must be finite and nonnegative")
        positive = self.h > 0
        covered = positive.any(axis=1)
        if not covered.all():
            uncovered = np.flatnonzero(~covered).tolist()
            raise ValueError(f"links {uncovered} are not covered by any component")
        if not positive.any(axis=0).all():
            raise ValueError("every component (column) must contain at least one link")

    @property
    def n_links(self) -> int:
        return self.h.shape[0]

    @property
    def n_components(self) -> int:
        return self.h.shape[1]


def _count(value, name: str, least: int | None = 0) -> int:
    """A whole-number setting or fixture field, checked rather than rounded: 2.0 is 2."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1
            or least is not None and value < least):
        at_least = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be a whole number{at_least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 1e-3
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "max_iterations", _count(self.max_iterations, "max_iterations", 1))


@dataclass
class FpState:
    """Fictitious-play bookkeeping.

    x_acc accumulates the columns picked by the component player (including
    the arbitrary initial pick), y_acc the rows picked by the link player.
    After k iterations row_counts sums to k and col_counts to k + 1.
    """

    x_acc: np.ndarray
    y_acc: np.ndarray
    row_counts: np.ndarray
    col_counts: np.ndarray
    k: int
    last_row: int
    last_col: int


@dataclass
class GameSolution:
    """Mixed strategies plus a certified bracket on the game value.

    max(x @ H) is value_upper and min(H @ y) is value_lower, capped at value_upper
    by the exact finish. From fp_solve, x may come from an earlier iteration
    than y and converged says FP's bracket closed to delta; from finish_exact,
    iterations counts the masters solved and converged is True.
    """

    x: np.ndarray
    y: np.ndarray
    value_lower: float
    value_upper: float
    iterations: int
    converged: bool
    state: FpState | None = None
    bounds_log: list[tuple[float, float]] | None = None


def _check_links(members: list[tuple[int, ...]], n_links: int) -> None:
    """Raise ValueError naming the first component whose members leave 0..n_links-1."""
    for j, links in enumerate(members):
        if links[0] < 0 or links[-1] >= n_links:  # members are sorted
            i = next(i for i in links if not 0 <= i < n_links)
            raise ValueError(f"component {j} references link {i} outside 0..{n_links - 1}")


def _membership(components: list[Component], n_links: int) -> np.ndarray:
    """Component-by-link 0/1 matrix: m[j, i] is 1 when link i is in component j."""
    members = [comp.members for comp in components]
    _check_links(members, n_links)
    m = np.zeros(len(members) * n_links, dtype=np.intp)
    m[[j * n_links + i for j, links in enumerate(members) for i in links]] = 1
    return m.reshape(len(members), n_links)


def build_payoff(components: list[Component], r: RateVector) -> PayoffMatrix:
    """Assemble the payoff matrix for the given components and link rates."""
    zero_rated = [i for i, rate in enumerate(r.rates) if rate == 0]
    if zero_rated:
        raise ValueError(f"links {zero_rated} have rate 0; payoff entries 1/r are undefined")
    rates = np.array(r.rates, dtype=float)
    return PayoffMatrix(_membership(components, len(r)).T / rates[:, None])


def fp_solve(H: PayoffMatrix, cfg: SolverConfig | None = None,
             log_bounds: bool = False) -> GameSolution:
    """Solve the game by fictitious play, with dense updates of both accumulators.

    The component player opens with column 0. Each iteration the link player
    best-responds to the accumulated column payoffs (argmin, lowest index on
    ties) and the component player to the accumulated row payoffs (argmax,
    lowest index on ties). Each accumulator, divided by its own pick count,
    is a one-player payoff profile, so its worst entry bounds the game
    value: min(x_acc) / (k + 1) from below and max(y_acc) / k from above.
    Every iterate's bound holds (Robinson 1951), and the upper one
    oscillates, so the solve keeps the least upper bound seen so far and its
    iteration. It stops once that least upper bound is within delta of the
    current lower bound. x is the link player's pick counts up to that
    iteration over its number and value_upper its bound; y and value_lower
    come from the last iteration. So the returned strategies certify the
    bracket: min(H @ y) equals value_lower and max(x @ H) equals
    value_upper. bounds_log, when asked for, holds each iteration's own
    (lower, upper) pair, not the running minimum; state is that of the last
    iteration.

    Hitting max_iterations is not an error: the solution comes back with
    converged=False and the bounds still valid.
    """
    cfg = cfg or SolverConfig()
    h = H.h
    n_links, n_comps = h.shape
    x_acc = h[:, 0].copy()
    y_acc = np.zeros(n_comps)
    col_counts = np.zeros(n_comps, dtype=np.int64)
    col_counts[0] = 1
    picks = []  # the link player's pick at each iteration
    log: list[tuple[float, float]] | None = [] if log_bounds else None

    converged = False
    upper_min = math.inf
    i = int(x_acc.argmin())
    for k in range(1, cfg.max_iterations + 1):
        picks.append(i)
        y_acc += h[i]
        j = int(y_acc.argmax())
        upper = float(y_acc[j]) / k
        if upper < upper_min:
            upper_min, k_min = upper, k
        col_counts[j] += 1
        x_acc += h[:, j]
        i = int(x_acc.argmin())
        lower = float(x_acc[i]) / (k + 1)
        if log is not None:
            log.append((lower, upper))
        if upper_min - lower <= cfg.delta:
            converged = True
            break

    picks = np.array(picks, dtype=np.intp)
    state = FpState(x_acc, y_acc, np.bincount(picks, minlength=n_links), col_counts, k,
                    int(picks[-1]), j)
    return GameSolution(
        x=np.bincount(picks[:k_min], minlength=n_links) / k_min,
        y=col_counts / (k + 1),
        value_lower=lower,
        value_upper=upper_min,
        iterations=k,
        converged=converged,
        state=state,
        bounds_log=log,
    )


# A game with at most this many columns per link opens its pool with all of
# them; a wider one with each link's first covering column, priced in rounds.
_WHOLE_PER_LINK = 4

# A solve pivots by Dantzig's rule until its pivots reach this many times
# its master's rows plus columns, then by Bland's rule, which cannot cycle.
_DANTZIG_BUDGET = 1


def finish_exact(H: PayoffMatrix) -> GameSolution:
    """Solve the game exactly by column generation on min sum(u) s.t. A u >= b, u >= 0.

    A is H over each row's largest entry and b its reciprocal (build_payoff's
    0/1 membership and rates). A game of J <= 4L columns opens its pool with
    all of them, so its first master is exact. A wider game's pool opens
    with the first column covering each link; each round adds up to L of
    the columns the link duals z price most negative, 1 - z @ A, until none
    is below -1e-9. y = u / sum(u) and x = b z / (b . z) certify
    value_upper = max(x @ H) and value_lower = min(min(H @ y), value_upper).
    iterations counts the masters solved.

    The first master starts from a clique basis. The clique is greedy over
    A alone: rows that no column holds two of, largest b first and lowest
    index on ties (for build_payoff, a clique of the conflict graph taken by
    rate). Clique row s gets the pool column j_s that maximises A[s, .],
    the largest b . A[:, j] and then the lowest index on ties. No column
    holds two clique rows, so the start is dual feasible, every reduced cost
    being 1 - A[s, j] / A[s, j_s] >= 0, and its objective is the clique's
    bound sum(b_s / A[s, j_s]). _dual_simplex solves it. After that the
    master stays warm: a pricing round appends its columns to the optimal
    tableau as B^-1 (-a_j), in the order they were priced, just before the
    surpluses, with reduced cost 1 - z . a_j. The basis is still primal
    feasible, and _primal_simplex finishes the round. Every sum that
    decides a step runs over rows or columns in index order.
    """
    h = H.h
    n_links, n_comps = h.shape
    scale = np.maximum.reduce(h, axis=1)
    a_all, b = h / scale[:, None], 1.0 / scale

    held = a_all > 0
    held_by = [int.from_bytes(row.tobytes(), "little")  # each row's columns as a bitset
               for row in np.packbits(held, axis=1, bitorder="little")]
    clique, taken = [], 0
    for i in sorted(range(n_links), key=b.tolist().__getitem__, reverse=True):  # stable
        if not held_by[i] & taken:
            clique.append(i)
            taken |= held_by[i]
    in_pool = np.full(n_comps, n_comps <= _WHOLE_PER_LINK * n_links)
    in_pool[held.argmax(axis=1)] = True  # each link's first covering column

    ids = np.flatnonzero(in_pool)  # each tableau column's column of a_all
    a = a_all[:, ids]
    t, basis, _ = _dual_simplex(a, b, clique, _crash_columns(a, b, clique),
                                _DANTZIG_BUDGET * (n_links + len(ids)))
    outside, masters = ~in_pool, 1
    while True:
        n_cols = len(ids)
        z = np.maximum(t[n_links, n_cols:-1], 0.0) + 0.0  # + 0.0 turns -0.0 into 0.0
        candidates = np.flatnonzero(outside)
        if not len(candidates):  # the pool holds every column
            break
        # One matmul prices every column. It sums in its own order, off by
        # far less than 2.5e-10. A column below -1e-9 in row order is below
        # -5e-10 by the matmul, and since at most L columns enter, the L most
        # negative in row order lie within 5e-10 of the L-th most negative by
        # the matmul. Only those columns are priced again with sums in row
        # order, and those below -1e-9 enter, up to L, the most negative first.
        rough = 1.0 - (z @ a_all)[candidates]
        near = rough < -5e-10
        candidates, rough = candidates[near], rough[near]
        if len(rough) > n_links:
            candidates = candidates[rough <= np.sort(rough)[n_links - 1] + 5e-10]
        reduced = 1.0 - np.add.accumulate(a_all[:, candidates] * z[:, None])[-1]
        below = reduced < -1e-9
        if not below.any():
            break
        entering = candidates[below][np.argsort(reduced[below], kind="stable")[:n_links]]

        # Grow the tableau: each new column is B^-1 (-a_j), summed over rows
        # in order, and its reduced cost 1 - z . a_j, where B^-1 and z are
        # the surpluses' columns.
        outside[entering] = False
        new = -np.add.accumulate(t[:, n_cols:-1, None] * a_all[:, entering], axis=1)[:, -1]
        new[n_links] += 1.0
        t = np.concatenate([t[:, :n_cols], new, t[:, n_cols:]], axis=1)
        basis[basis >= n_cols] += len(entering)
        ids = np.concatenate([ids, entering])
        _primal_simplex(t, basis, _DANTZIG_BUDGET * (n_links + len(ids)))
        masters += 1

    values = np.zeros(n_cols + n_links)
    values[basis] = t[:n_links, -1]
    u = np.maximum(values[:n_cols], 0.0) + 0.0
    y = np.zeros(n_comps)
    y[ids] = u / np.add.accumulate(u)[-1]
    w = z / scale
    x = w / np.add.accumulate(w)[-1]
    upper = float(np.maximum.reduce(x @ h))
    return GameSolution(x, y, min(float(np.minimum.reduce(h @ y)), upper), upper, masters, True)


def _crash_columns(a: np.ndarray, b: np.ndarray, rows: list[int]) -> np.ndarray:
    """The column j_s for each clique row s in rows: it maximises a[s, :].

    Among ties, the largest b . a[:, j] wins, then the lowest index.
    """
    vals = a[rows]
    weight = (b[:, None] * a).sum(axis=0)  # one row after another, so in row order
    best = vals == vals.max(axis=1, keepdims=True)
    return np.where(best, weight, -np.inf).argmax(axis=1)


def _pivot(t: np.ndarray, basis: np.ndarray, r: int, q: int) -> None:
    """Pivot the tableau t on row r and column q, in place."""
    pivot = t[r] / t[r, q]
    t -= t[:, q, None] * pivot
    t[r] = pivot
    basis[r] = q


def _dual_simplex(a: np.ndarray, b: np.ndarray, rows: list[int], cols: np.ndarray,
                  budget: float) -> tuple[np.ndarray, np.ndarray, int]:
    """min sum(u) s.t. a @ u >= b, u >= 0 on one (L, C) matrix, by a dual simplex.

    Returns the optimal tableau (L + 1, C + L + 1), its basis (L) and the
    pivots after the crash. The tableau's columns are the C structurals, the
    L surpluses and the right side; its last row holds the reduced costs, so
    its surplus entries are the row duals z. The crash pivots column cols[k]
    into row rows[k], one row after another; no column may hold two of the
    rows, and the basis must be dual feasible. Then a row is short when its
    right side is below minus the rounding of its terms. By Dantzig's rule
    the short row of most negative right side leaves, the lowest on ties;
    once the solve has made budget pivots, Bland's rule picks the
    lowest-indexed short basic variable instead, so it cannot cycle. The
    lowest-indexed column of least ratio enters.
    """
    n_rows, n_cols = a.shape
    t = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    np.negative(a, out=t[:n_rows, :n_cols])
    diag = np.arange(n_rows)
    t[diag, n_cols + diag] = 1.0
    np.negative(b, out=t[:n_rows, -1])
    t[n_rows, :n_cols] = 1.0  # the reduced costs: every column costs 1
    basis = n_cols + diag
    for r, q in zip(rows, cols):
        _pivot(t, basis, r, q)

    rhs, inverse = t[:n_rows, -1], t[:n_rows, n_cols:-1]  # views, kept up to date
    costs = t[n_rows, :-1]
    tol = -1e-12 * b
    pivots = 0
    while (short := rhs < np.abs(inverse) @ tol).any():
        if pivots < budget:
            r = np.where(short, rhs, np.inf).argmin()
        else:
            r = np.where(short, basis, n_cols + n_rows).argmin()
        row = t[r, :-1]
        # Minus the ratios, so the least ratio is the first largest entry.
        ratios = np.divide(costs, row, out=np.full(row.shape, -np.inf), where=row < -1e-9)
        _pivot(t, basis, r, ratios.argmax())
        pivots += 1
    return t, basis, pivots


def _primal_simplex(t: np.ndarray, basis: np.ndarray, budget: float) -> int:
    """Primal simplex, in place, on a primal feasible tableau laid out as _dual_simplex's.

    Returns the pivots. A column of reduced cost below -1e-9 may enter: by
    Dantzig's rule the most negative, the lowest-indexed on ties. Of the
    rows whose entry in it is above 1e-9, the one of least ratio of right
    side to entry leaves, the lowest on ties. Once the solve has made budget
    pivots, Bland's rule takes over: the lowest-indexed column that may
    enter, and among the rows of least ratio the lowest-indexed basic
    variable.
    """
    n_rows = len(t) - 1
    rhs, costs = t[:n_rows, -1], t[n_rows, :-1]  # views, kept up to date
    pivots = 0
    while (entering := costs < -1e-9).any():
        bland = pivots >= budget
        q = entering.argmax() if bland else costs.argmin()
        col = t[:n_rows, q]
        ratios = np.divide(rhs, col, out=np.full(n_rows, np.inf), where=col > 1e-9)
        r = ratios.argmin()
        if bland:
            r = np.where(ratios == ratios[r], basis, t.shape[1]).argmin()
        _pivot(t, basis, r, q)
        pivots += 1
    return pivots


# The clique search of certified_schedule gives up after this many nodes.
_CLIQUE_NODES = 1_000


def certified_schedule(g: ConflictGraph, r: RateVector) -> tuple[list[Component], list[int]] | None:
    """A first-fit schedule of T slots and a clique of weight T: its slot sets and their counts.

    First fit takes the links in decreasing conflict degree, lowest index on
    ties, and gives each link i the r_i lowest slots that no conflicting
    link placed before it holds. Each link's slots are a Python-int bitset,
    filled a run of free bits at a time, and T is the number of slots used.
    No fractional schedule is shorter than a clique's weight (its links'
    rates summed), so a clique of weight T proves the game value 1/T.

    Conflicting links hold disjoint slots, so a clique weighs T exactly when
    its links' slots tile all T. A depth-first branch and bound searches for
    such a tiling: each node takes the lowest slot still uncovered and
    branches on the links that hold it and conflict with every link chosen
    so far, lowest index first, and prunes a node whose candidates cannot
    cover the slots left. It stops after _CLIQUE_NODES nodes, never on
    time, and then returns None, as it does when no clique weighs T.

    A certified schedule comes back as its distinct slot sets in order of
    first slot, conflict-free but not always maximal, with the number of
    slots each fills; the counts sum to T.
    """
    rates = r.rates
    packed = np.packbits(g.adjacency, axis=1, bitorder="little")
    width = 8 * packed.shape[1]  # one row's bits, read out of the whole matrix as one int
    whole, row = int.from_bytes(packed.tobytes(), "little"), (1 << width) - 1
    conflicts = [((whole >> width * i) & row) ^ (1 << i) for i in range(g.n_links)]
    degree = [links.bit_count() for links in conflicts]
    held, placed = [0] * g.n_links, 0
    events = {}  # slot -> the links whose runs start or end there
    for i in sorted(range(g.n_links), key=degree.__getitem__, reverse=True):  # stable
        blocked = 0
        for j in _links(conflicts[i] & placed):
            blocked |= held[j]
        need, mine, bit = rates[i], 0, 1 << i
        placed |= bit
        while need:
            start = (~blocked & (blocked + 1)).bit_length() - 1  # the lowest free slot
            above = blocked >> start
            run = min(need, (above & -above).bit_length() - 1) if above else need
            bits = ((1 << run) - 1) << start
            mine |= bits
            blocked |= bits
            need -= run
            events[start] = events.get(start, 0) ^ bit
            events[start + run] = events.get(start + run, 0) ^ bit
        held[i] = mine
    starts = sorted(events)
    full = (1 << starts[-1]) - 1

    stack = [(0, (1 << g.n_links) - 1)]  # (slots covered, links conflicting with every choice)
    for _ in range(_CLIQUE_NODES):
        if not stack:
            return None
        covered, candidates = stack.pop()
        if covered == full:
            break
        lowest = ~covered & (covered + 1)  # the lowest uncovered slot's bit
        reach, options = covered, []
        for i in _links(candidates):
            reach |= held[i]
            if held[i] & lowest:
                options.append(i)
        if reach == full:
            stack.extend((covered | held[i], candidates & conflicts[i]) for i in reversed(options))
    else:
        return None

    # Between two neighbouring run ends, the same links hold every slot.
    counts, members = {}, 0
    for start, end in zip(starts, starts[1:]):
        members ^= events[start]
        counts[members] = counts.get(members, 0) + end - start
    return [Component(_links(members)) for members in counts], list(counts.values())


@dataclass(frozen=True)
class Schedule:
    """Slot-by-slot component assignment with per-link service counts."""

    slots: tuple[int, ...]
    served: tuple[int, ...]
    components: tuple[Component, ...]

    @property
    def length(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class ScheduleCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def extract_schedule(components: list[Component], r: RateVector, y: np.ndarray,
                     value_lower: float, _unused_graph: ConflictGraph | None = None) -> Schedule:
    """Round the mixed strategy y into a feasible integer slot schedule.

    The fractional optimum needs 1/value slots, so the target length is
    ceil(1/value_lower) (minus a hair of tolerance against roundoff).
    Largest-remainder apportionment splits that many slots across components
    in proportion to y; a repair loop then adds slots of whichever component
    covers the most still-underserved links until every link meets its rate,
    and a trim pass drops slots that turned out to be unnecessary, scanning
    components from the highest index down; each component loses, in one
    step, its slot count or the smallest surplus (served minus rate) among
    its links, whichever is less. Slots are listed grouped by ascending
    component index.

    Only the components the rounding fires are read, except by the range
    check on every component's links and by the repair, which builds the
    component-by-link membership and runs only when a link is still short.

    The components already fix which links fire together, so no conflict
    graph is needed. A fifth positional argument (a conflict graph) is
    accepted and ignored, so that five-argument callers keep working.
    """
    if not value_lower > 0:
        raise ValueError(f"value_lower must be positive, got {value_lower}")
    y = np.asarray(y, dtype=float)
    if y.shape != (len(components),):
        raise ValueError(f"strategy length {y.shape} does not match {len(components)} components")
    members = [comp.members for comp in components]
    _check_links(members, len(r))

    target = math.ceil(1.0 / value_lower - 1e-9)
    quotas = y * target
    counts = np.floor(quotas).astype(int)
    leftover = target - int(counts.sum())
    by_remainder = np.argsort(-(quotas - counts), kind="stable")  # ties: lower index
    counts[by_remainder[:leftover]] += 1

    # Python ints over the fired components: a game fires a few of its columns.
    fired = np.flatnonzero(counts).tolist()
    fired_counts = counts[fired].tolist()
    served = [0] * len(r)
    for j, n in zip(fired, fired_counts):
        for i in members[j]:
            served[i] += n
    rates = r.rates
    if any(map(operator.lt, served, rates)):
        m = _membership(components, len(r))
        served, rates = np.array(served), np.asarray(rates)
        under = served < rates
        while under.any():
            coverage = m @ under
            j = int(np.argmax(coverage))  # ties: lower index
            if coverage[j] == 0:
                missing = int(np.flatnonzero(under)[0])
                raise ValueError(f"no component covers underserved link {missing}")
            counts[j] += 1
            served += m[j]
            under = served < rates
        served, rates = served.tolist(), rates.tolist()
        fired = np.flatnonzero(counts).tolist()
        fired_counts = counts[fired].tolist()

    for k in range(len(fired) - 1, -1, -1):
        links = members[fired[k]]
        drop = min(fired_counts[k], min([served[i] - rates[i] for i in links]))
        if drop:
            fired_counts[k] -= drop
            for i in links:
                served[i] -= drop

    slots = tuple(itertools.chain.from_iterable(map(itertools.repeat, fired, fired_counts)))
    return Schedule(slots, tuple(served), tuple(components))


def verify_schedule(s: Schedule, g: ConflictGraph, r: RateVector) -> ScheduleCheck:
    """Independent feasibility check: slots conflict-free and demands met.

    Each distinct component is checked once, at its first slot, and serves
    its links once per slot it fills. Components are visited in order of
    first slot, so a conflict, or an index outside the component list, is
    reported at the first slot that has one. Counts and adjacency are Python
    lists, as a check reads few entries.
    """
    n_comps = len(s.components)
    adjacency = g.adjacency.tolist()
    served = [0] * len(r)
    for comp_idx, n_slots in Counter(s.slots).items():
        if not 0 <= comp_idx < n_comps:
            return ScheduleCheck(
                False,
                f"slot {s.slots.index(comp_idx)} names component {comp_idx}, "
                f"outside 0..{n_comps - 1}",
            )
        members = s.components[comp_idx].members
        for a, b in itertools.combinations(members, 2):
            if adjacency[a][b]:
                return ScheduleCheck(
                    False,
                    f"slot {s.slots.index(comp_idx)} activates conflicting links {a} and {b}",
                )
        for i in members:
            served[i] += n_slots
    for i in range(len(r)):
        if served[i] < r[i]:
            return ScheduleCheck(False, f"link {i} served {served[i]} times but requires {r[i]}")
    return ScheduleCheck(True)
