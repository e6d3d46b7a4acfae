"""Link-vs-component matrix game: payoff build, fictitious play, exact oracle, schedules.

The scheduling problem is cast as a zero-sum game. Rows are links, columns
are components; the entry is 1/r_i when link i belongs to component j. A
mixed column strategy y is a recipe for how often to fire each component,
and (Hy)_i is the fraction of link i's demand served per slot, so the game
value v = max_y min_i (Hy)_i makes 1/v the minimal fractional schedule
length. Fictitious play approximates the equilibrium with certified
lower/upper bounds on v; an exact linear-programming solve (HiGHS, through
scipy) provides an independent cross-check at any size, and the schedule
extractor turns y into integer slot counts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

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
        if not ((self.h >= 0) & (self.h < math.inf)).all():  # also rejects NaN
            raise ValueError("payoff entries must be finite and nonnegative")
        if not (self.h > 0).any(axis=1).all():
            raise ValueError("every link (row) needs at least one component containing it")
        if not (self.h > 0).any(axis=0).all():
            raise ValueError("every component (column) must contain at least one link")

    @property
    def n_links(self) -> int:
        return self.h.shape[0]

    @property
    def n_components(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 1e-3
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


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

    max(x @ H) is value_upper and min(H @ y) is value_lower. x may come from
    an earlier iteration than y (see fp_solve); iterations counts up to the
    last one.
    """

    x: np.ndarray
    y: np.ndarray
    value_lower: float
    value_upper: float
    iterations: int
    converged: bool
    state: FpState | None = None
    bounds_log: list[tuple[float, float]] | None = None


def build_payoff(components: list[Component], r: RateVector) -> PayoffMatrix:
    """Assemble the payoff matrix for the given components and link rates."""
    if not components:
        raise ValueError("need at least one component")
    zero_rated = [i for i, rate in enumerate(r.rates) if rate == 0]
    if zero_rated:
        raise ValueError(f"links {zero_rated} have rate 0; payoff entries 1/r are undefined")
    n_links = len(r)
    h = np.zeros((n_links, len(components)))
    for j, comp in enumerate(components):
        for i in comp.members:
            if not 0 <= i < n_links:
                raise ValueError(f"component {j} references link {i} outside 0..{n_links - 1}")
            h[i, j] = 1.0 / r[i]
    uncovered = [i for i in range(n_links) if not h[i].any()]
    if uncovered:
        raise ValueError(f"links {uncovered} are not covered by any component")
    return PayoffMatrix(h)


def fp_solve(H: PayoffMatrix, cfg: SolverConfig | None = None,
             log_bounds: bool = False) -> GameSolution:
    """Solve the game by fictitious play.

    The component player opens with column 0. Each iteration the link player
    best-responds to the accumulated column payoffs (argmin, lowest index on
    ties) and the component player to the accumulated row payoffs (argmax,
    lowest index on ties). Each accumulator, divided by its own pick count,
    is a one-player payoff profile, so its worst entry bounds the game
    value: min(x_acc) / (k + 1) from below and max(y_acc) / k from above.
    Every iterate's bound holds (Robinson 1951), and the upper one
    oscillates, so the solve keeps the least upper bound seen so far with
    the link player's pick counts of its iteration. It stops once that
    least upper bound is within delta of the current lower bound. x is
    those saved counts over their iteration number and value_upper their
    bound; y and value_lower come from the last iteration. So the returned
    strategies certify the bracket: min(H @ y) equals value_lower and
    max(x @ H) equals value_upper. bounds_log, when asked for, holds each
    iteration's own (lower, upper) pair, not the running minimum; state
    is that of the last iteration.

    Both accumulators are updated sparsely. x_acc (one entry per link) is a
    Python list: a picked column adds only its nonzero entries, built on the
    column's first pick and cached, since FP picks few of the columns. The
    argmin over x_acc is recomputed only when the current bottleneck link is
    in the picked column. Skipping it otherwise is exact: entries only grow,
    so the entries before the bottleneck stay strictly above its unchanged
    value and those after it stay at or above it.

    y_acc (one entry per component) is a Python list too: a picked row adds
    only to the components that contain its link, with each row's nonzero
    entries built once, and the new argmax is searched among those
    components and the current leader, largest value first and lowest index
    on ties. An untouched entry did not grow, so it can at most equal the
    leader, and then only from a higher index. Python pays for each touched
    entry where numpy pays per call, so this wins on short rows, as in games
    of about ten nodes, and loses where links sit in hundreds of components
    (see CHANGES.md).

    Each float add is one the dense update makes, and the adds skipped are
    of 0.0, which change nothing; so the trajectory, bounds and iteration
    count are those of a dense loop, bit for bit.

    Hitting max_iterations is not an error: the solution comes back with
    converged=False and the bounds still valid.
    """
    cfg = cfg or SolverConfig()
    h = H.h
    n_links, n_comps = h.shape
    col_entries: list[dict[int, float] | None] = [None] * n_comps
    row_entries = []
    for row in h:
        comps = np.flatnonzero(row)
        row_entries.append(list(zip(comps.tolist(), row[comps].tolist())))

    # + 0.0 turns -0.0 into 0.0, as the dense loop's first add does
    x_acc = (h[:, 0] + 0.0).tolist()
    col_counts = [0] * n_comps
    col_counts[0] = 1
    y_acc = [0.0] * n_comps
    row_counts = [0] * n_links
    log: list[tuple[float, float]] | None = [] if log_bounds else None

    k = 0
    converged = False
    upper_min = math.inf
    i_next = x_acc.index(min(x_acc))
    j_k = 0  # the first maximum of the all-zero y_acc
    while k < cfg.max_iterations:
        k += 1
        i_k = i_next
        row_counts[i_k] += 1
        best_j = j_k
        best = y_acc[j_k]
        for j, value in row_entries[i_k]:
            value += y_acc[j]
            y_acc[j] = value
            if value > best or (value == best and j < best_j):
                best, best_j = value, j
        j_k = best_j
        upper = best / k
        if upper < upper_min:
            upper_min, k_min, row_counts_min = upper, k, row_counts.copy()
        col_counts[j_k] += 1
        entries = col_entries[j_k]
        if entries is None:
            links = np.flatnonzero(h[:, j_k])
            entries = col_entries[j_k] = dict(zip(links.tolist(), h[links, j_k].tolist()))
        for i, value in entries.items():
            x_acc[i] += value
        if i_k in entries:
            i_next = x_acc.index(min(x_acc))
        lower = x_acc[i_next] / (k + 1)
        if log is not None:
            log.append((lower, upper))
        if upper_min - lower <= cfg.delta:
            converged = True
            break

    row_counts = np.array(row_counts, dtype=np.int64)
    col_counts = np.array(col_counts, dtype=np.int64)
    state = FpState(np.array(x_acc), np.array(y_acc), row_counts, col_counts, k, i_k, j_k)
    return GameSolution(
        x=np.array(row_counts_min, dtype=np.int64) / k_min,
        y=col_counts / (k + 1),
        value_lower=lower,
        value_upper=upper_min,
        iterations=k,
        converged=converged,
        state=state,
        bounds_log=log,
    )


def lp_oracle(H: PayoffMatrix) -> tuple[float, np.ndarray]:
    """Exact game value and optimal component strategy, independent of fictitious play.

    With u = y / v the game max_y min_i (Hy)_i becomes the linear program
    min sum(u) s.t. Hu >= 1, u >= 0, which HiGHS solves at any size. Its
    optimum sum(u) = 1/v is the fractional schedule length, and y = u / sum(u).
    Every row of H has a positive entry, so the program is feasible and bounded.
    """
    # Imported here, not at module level: scipy would more than triple the
    # start-up time and memory of every run that only uses fictitious play.
    from scipy.optimize import linprog

    res = linprog(np.ones(H.n_components), A_ub=-H.h, b_ub=-np.ones(H.n_links), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the game: {res.message}")
    length = float(res.x.sum())
    return 1.0 / length, res.x / length


def supported_rates(H: PayoffMatrix, y: np.ndarray) -> np.ndarray:
    """Per-link served fraction (Hy)_i: supported rate over required rate."""
    y = np.asarray(y, dtype=float)
    if y.shape != (H.n_components,):
        raise ValueError(f"strategy length {y.shape} does not match {H.n_components} components")
    return H.h @ y


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
    n_links = len(r)

    target = math.ceil(1.0 / value_lower - 1e-9)
    quotas = y * target
    counts = np.floor(quotas).astype(int)
    leftover = target - int(counts.sum())
    by_remainder = np.argsort(-(quotas - counts), kind="stable")  # ties: lower index
    for j in by_remainder[:leftover]:
        counts[j] += 1

    served = np.zeros(n_links, dtype=int)
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

    # Lists: the trim touches a few entries per component, too few for numpy.
    counts, served, rates = counts.tolist(), served.tolist(), rates.tolist()
    for j in range(len(components) - 1, -1, -1):
        if counts[j]:
            members = components[j].members
            drop = min(counts[j], min([served[i] - rates[i] for i in members]))
            counts[j] -= drop
            for i in members:
                served[i] -= drop

    slots = tuple(j for j, n in enumerate(counts) for _ in range(n))
    return Schedule(slots, tuple(served), tuple(components))


def verify_schedule(s: Schedule, g: ConflictGraph, r: RateVector) -> ScheduleCheck:
    """Independent feasibility check: slots conflict-free and demands met.

    Each distinct component is checked once, at its first slot, and serves
    its links once per slot it fills. Components are visited in order of
    first slot, so a conflict is reported at the first slot that has one.
    """
    served = np.zeros(len(r), dtype=int)
    for comp_idx, n_slots in Counter(s.slots).items():
        members = s.components[comp_idx].members
        for a, b in itertools.combinations(members, 2):
            if g.adjacency[a, b]:
                return ScheduleCheck(
                    False,
                    f"slot {s.slots.index(comp_idx)} activates conflicting links {a} and {b}",
                )
        served[list(members)] += n_slots
    for i in range(len(r)):
        if served[i] < r[i]:
            return ScheduleCheck(
                False, f"link {i} served {int(served[i])} times but requires {r[i]}"
            )
    return ScheduleCheck(True)
