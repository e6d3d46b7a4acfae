"""Link-vs-component matrix game: payoff build, fictitious play, exact finish, schedules.

The scheduling problem is cast as a zero-sum game. Rows are links, columns
are components; the entry is 1/r_i when link i belongs to component j. A
mixed column strategy y is a recipe for how often to fire each component,
and (Hy)_i is the fraction of link i's demand served per slot, so the game
value v = max_y min_i (Hy)_i makes 1/v the minimal fractional schedule
length. A short run of fictitious play, the plain dense loop, picks a few
columns. The exact finish solves the linear program over every column of a
game with at most four per link, and over FP's columns of a wider one, from
a basis built on a clique of links no component holds two of, and adds
priced columns until v is exact, for several games at once in one stacked
simplex. The schedule extractor turns y into integer slot counts.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .components import Component
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
    than y; iterations and converged (FP's bracket closed to delta) are FP's,
    and the finish keeps them.
    """

    x: np.ndarray
    y: np.ndarray
    value_lower: float
    value_upper: float
    iterations: int
    converged: bool
    state: FpState | None = None
    bounds_log: list[tuple[float, float]] | None = None


def _membership(components: list[Component], n_links: int) -> np.ndarray:
    """Component-by-link 0/1 matrix: m[j, i] is 1 when link i is in component j."""
    members = [comp.members for comp in components]
    for j, links in enumerate(members):
        if links[0] < 0 or links[-1] >= n_links:  # members are sorted
            i = next(i for i in links if not 0 <= i < n_links)
            raise ValueError(f"component {j} references link {i} outside 0..{n_links - 1}")
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


def finish_exact(H: PayoffMatrix, sol: GameSolution) -> GameSolution:
    """The one-game case of finish_stack: sol made exact on H."""
    return finish_stack([H], [sol])[0]


# A game with at most this many columns per link opens its pool with all of
# them; a wider one opens with FP's columns and prices the rest in rounds.
_WHOLE_PER_LINK = 4


def finish_stack(payoffs: list[PayoffMatrix], sols: list[GameSolution]) -> list[GameSolution]:
    """Make each sols[g] exact by column generation on min sum(u) s.t. A u >= b, u >= 0.

    A is payoffs[g] over each row's largest entry and b its reciprocal
    (build_payoff's 0/1 membership and rates). A game of J <= 4L columns
    opens its pool with all of them, so its first master is exact. A wider
    game's pool opens with sols[g].y's columns and the first column covering
    each link they miss; each round adds up to L of the columns the link
    duals z price most negative, 1 - z @ A, until none is below -1e-9.
    y = u / sum(u) and x = b z / (b . z) certify value_upper = max(x @ H) and
    value_lower = min(min(H @ y), value_upper).

    Each game's master starts from a clique basis. The clique is greedy over
    A alone: rows that no column holds two of, largest b first and lowest
    index on ties (for build_payoff, a clique of the conflict graph taken by
    rate). Each round gives clique row s the pool column j_s that maximises
    A[s, .], the largest b . A[:, j] and then the lowest index on ties. No
    column holds two clique rows, so the start is dual feasible, every
    reduced cost being 1 - A[s, j] / A[s, j_s] >= 0, and its objective is the
    clique's bound sum(b_s / A[s, j_s]).

    Every game's A sits side by side in one array, rows zero-padded to the
    tallest game's: one copy of the payoffs, never padded to the widest. So
    each round builds its masters, crash columns and pricing in a fixed
    number of numpy calls however many games there are. Each round solves
    the masters of the games still pricing in one _dual_simplex call,
    zero-padded to a common shape after each game's own rows and columns; a
    game leaves once its pricing adds nothing, and a round whose games hold
    all their columns prices none. A padded column never enters (its entries
    are 0), a padded row's surplus stays basic (its right side is 0), and
    every sum that decides a step runs over a game's rows or columns in
    index order, so each game comes out bit for bit as if it were finished
    alone.
    """
    if not payoffs:
        return []
    hs = [H.h for H in payoffs]
    n_games, n_links = len(hs), [len(h) for h in hs]
    n_rows, widths = max(n_links), [h.shape[1] for h in hs]
    ends = list(itertools.accumulate(widths))
    owner = np.repeat(np.arange(n_games), widths)  # each column's game
    scale = np.full((n_games, n_rows), np.inf)  # a padded row's b is 1/inf = 0
    a_all = np.zeros((n_rows, ends[-1]))
    for g, h in enumerate(hs):
        row_max = np.amax(h, axis=1, out=scale[g, :len(h)])
        np.divide(h, row_max[:, None], out=a_all[:len(h), ends[g] - widths[g]:ends[g]])
    b_all = 1.0 / scale

    # Each row's columns as one Python-int bitset, for the clique and the cover.
    packed = np.packbits(a_all > 0, axis=1, bitorder="little")
    held_by = [int.from_bytes(row.tobytes(), "little") for row in packed]
    in_pool = np.concatenate([sol.y > 0 if width > _WHOLE_PER_LINK * links else np.full(width, True)
                              for sol, width, links in zip(sols, widths, n_links)])
    pool = int.from_bytes(np.packbits(in_pool, bitorder="little").tobytes(), "little")
    cliques, cover = [], []
    for b, end, width, links in zip(b_all.tolist(), ends, widths, n_links):
        span = (1 << end) - (1 << (end - width))
        clique, taken = [], 0
        for i in sorted(range(links), key=b.__getitem__, reverse=True):  # stable
            cols = held_by[i] & span
            if not cols & taken:
                clique.append(i)
                taken |= cols
            if not cols & pool:
                cover.append((cols & -cols).bit_length() - 1)  # the first column covering i
        cliques.append(clique)
    in_pool[cover] = True
    width = max(map(len, cliques))
    clique_rows = np.array([c + [-1] * (width - len(c)) for c in cliques])

    most_added = np.array(n_links)  # a game's pool grows by at most L columns a round
    x_all, y_all = np.zeros((n_games, n_rows)), np.zeros(len(owner))
    pricing = np.ones(n_games, dtype=bool)
    active = np.arange(n_games)
    while True:
        cols = np.flatnonzero(in_pool & pricing[owner])
        k = np.searchsorted(active, owner[cols])  # each pool column's game in the stack
        counts = np.bincount(k)
        pos = np.arange(len(cols)) - (np.cumsum(counts) - counts)[k]
        a = np.zeros((len(active), n_rows, counts.max()))
        a[k, :, pos] = a_all[:, cols].T
        b = b_all[active]
        rows = clique_rows[active]
        u, z, _ = _dual_simplex(a, b, rows, _crash_columns(a, b, rows))
        # Every sum over a game's rows or columns runs in index order. A game
        # that prices again overwrites its x and y in the next round.
        y_all[cols] = u[k, pos] / np.add.accumulate(u, axis=1)[k, -1]
        w = z / scale[active]
        x_all[active] = w / np.add.accumulate(w, axis=1)[:, -1:]

        # One matmul prices every column against every stacked game's duals.
        # It sums in its own order, off by far less than 2.5e-10. A column
        # below -1e-9 in row order is below -5e-10 by the matmul, and since at
        # most L of a game's columns enter, the L most negative in row order
        # lie within 5e-10 of the game's L-th most negative by the matmul.
        # Only those columns are priced again with sums in row order, and
        # those below -1e-9 enter, up to L a game, the most negative first.
        candidates = np.flatnonzero(pricing[owner] & ~in_pool)
        if not len(candidates):  # every stacked game's pool holds all its columns
            break
        prices = z @ a_all
        stacked = np.searchsorted(active, owner[candidates])
        rough = 1.0 - prices[stacked, candidates]
        near = rough < -5e-10
        candidates, stacked, rough = candidates[near], stacked[near], rough[near]
        limit = most_added[active]
        counts = np.bincount(stacked, minlength=len(active))
        many = counts > limit
        lth = np.full(len(active), np.inf)
        order = np.lexsort((rough, stacked))
        lth[many] = rough[order[(np.cumsum(counts) - counts + limit - 1)[many]]]
        leading = rough <= lth[stacked] + 5e-10
        candidates, stacked = candidates[leading], stacked[leading]
        terms = a_all[:, candidates]
        terms *= z[stacked].T
        reduced = 1.0 - np.add.accumulate(terms)[-1]
        below = reduced < -1e-9
        if not below.any():
            break
        entering, game = candidates[below], owner[candidates[below]]
        order = np.lexsort((reduced[below], game))
        entering, game = entering[order], game[order]
        added = np.bincount(game, minlength=n_games)
        rank = np.arange(len(entering)) - (np.cumsum(added) - added)[game]
        in_pool[entering[rank < most_added[game]]] = True
        pricing = added > 0
        active = np.flatnonzero(pricing)

    out = []
    for h, sol, x, end, width in zip(hs, sols, x_all, ends, widths):
        x, y = x[:len(h)], y_all[end - width:end]
        upper = float((x @ h).max())
        out.append(replace(sol, x=x, y=y, value_upper=upper,
                           value_lower=min(float((h @ y).min()), upper)))
    return out


def _crash_columns(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per game g of a (G, L, C) stack, the column j_s for each clique row s in rows[g].

    j_s maximises a[g, s, :]; among ties, the largest b[g] . a[g, :, j], then
    the lowest index. Entries of rows below 0 are padding, and their columns
    are meaningless.
    """
    vals = a[np.arange(len(a))[:, None], rows]
    weight = (b[:, :, None] * a).sum(axis=1)  # one row after another, so in row order
    best = vals == vals.max(axis=2, keepdims=True)
    return np.where(best, weight[:, None, :], -np.inf).argmax(axis=2)


def _dual_simplex(a: np.ndarray, b: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per game g of a (G, L, C) stack: u minimising sum(u) s.t. a[g] @ u >= b[g], u >= 0.

    Returns u (G, C) and the row duals (G, L), both clipped at 0, and the
    number of stacked pivots after the crash. A dense dual simplex whose
    tableau carries the reduced costs as its last row. The crash starts it
    from the basis in which column cols[g, k] replaces the surplus of row
    rows[g, k] (entries of rows below 0 are padding); no column may hold two
    of a game's rows, and the basis must be dual feasible. Its block is
    diagonal, so it is pivoted in one step, to the bits (up to signs of 0)
    of pivoting the rows one at a time in order: each row is divided by its
    pivot; every other entry but the right side takes off at most one
    nonzero multiple, which one matmul gives exactly; and the right sides
    take theirs off one after another. Then Bland's rule: the
    lowest-indexed basic variable below minus the rounding of its terms
    leaves, the lowest-indexed column of least ratio enters. Each round
    pivots every game that still has such a row once, and the others on a
    basic column, which changes nothing.
    """
    n_games, n_rows, n_cols = a.shape
    t = np.zeros((n_games, n_rows + 1, n_cols + n_rows + 1))
    np.negative(a, out=t[:, :n_rows, :n_cols])
    diag = np.arange(n_rows)
    t[:, diag, n_cols + diag] = 1.0
    np.negative(b, out=t[:, :n_rows, -1])
    t[:, n_rows, :n_cols] = 1.0  # the reduced costs: every column costs 1
    basis = np.broadcast_to(n_cols + diag, (n_games, n_rows)).copy()

    g = np.broadcast_to(np.arange(n_games)[:, None], rows.shape)
    pad = rows < 0
    pivot = t[g, rows] / t[g, rows, cols][:, :, None]
    coef = t[g, :, cols]
    pivot[pad] = 0.0
    coef[pad] = 0.0
    sides = np.concatenate([t[:, None, :, -1], coef * pivot[:, :, -1:]], axis=1)
    t -= coef.transpose(0, 2, 1) @ pivot
    t[:, :, -1] = np.subtract.reduce(sides, axis=1)
    crash = ~pad
    t[g[crash], rows[crash]] = pivot[crash]
    basis[g[crash], rows[crash]] = cols[crash]

    g = np.arange(n_games)
    tol = -1e-12 * b[:, :, None]
    pivots = 0
    while True:
        rhs = t[:, :n_rows, -1]
        short = rhs < (np.abs(t[:, :n_rows, n_cols:-1]) @ tol)[:, :, 0]
        pivoting = short.any(axis=1)
        if not pivoting.any():
            break
        r = np.where(short, basis, n_cols + n_rows).argmin(axis=1)
        pivot = t[g, r]
        row = pivot[:, :-1]
        # Minus the ratios, so the least ratio is the first largest entry.
        ratios = np.divide(t[:, n_rows, :-1], row, out=np.full(row.shape, -np.inf),
                           where=row < -1e-9)
        # A game with no short row pivots row 0 on its basic column, the
        # unit vector of that row: the pivot changes nothing but signs of 0.
        q = np.where(pivoting, ratios.argmax(axis=1), basis[:, 0])
        pivot /= pivot[g, q][:, None]
        t -= t[g, :, q][:, :, None] * pivot[:, None, :]
        t[g, r] = pivot
        basis[g, r] = q
        pivots += 1
    values = np.zeros((n_games, n_cols + n_rows))
    values[g[:, None], basis] = rhs
    # + 0.0 turns -0.0 into 0.0, so a stacked game's zeros have the signs of the game alone.
    return (np.maximum(values[:, :n_cols], 0.0) + 0.0,
            np.maximum(t[:, n_rows, n_cols:-1], 0.0) + 0.0, pivots)


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

    The components already fix which links fire together, so no conflict
    graph is needed. A fifth positional argument (a conflict graph) is
    accepted and ignored, so that five-argument callers keep working.
    """
    if not value_lower > 0:
        raise ValueError(f"value_lower must be positive, got {value_lower}")
    y = np.asarray(y, dtype=float)
    if y.shape != (len(components),):
        raise ValueError(f"strategy length {y.shape} does not match {len(components)} components")

    m = _membership(components, len(r))
    rates = np.asarray(r.rates)

    target = math.ceil(1.0 / value_lower - 1e-9)
    quotas = y * target
    counts = np.floor(quotas).astype(int)
    leftover = target - int(counts.sum())
    by_remainder = np.argsort(-(quotas - counts), kind="stable")  # ties: lower index
    counts[by_remainder[:leftover]] += 1

    served = counts @ m
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

    # Lists: the trim touches a few entries per component, too few for numpy.
    counts, served, rates = counts.tolist(), served.tolist(), rates.tolist()
    for j in range(len(components) - 1, -1, -1):
        if counts[j]:
            members = components[j].members
            drop = min(counts[j], min([served[i] - rates[i] for i in members]))
            counts[j] -= drop
            for i in members:
                served[i] -= drop

    slots = tuple(np.repeat(np.arange(len(components)), counts).tolist())
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
