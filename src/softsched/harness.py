"""Monte-Carlo experiment harness: sweeps, replication, aggregation, CSV output.

Each replication generates a random instance, routes the sessions, then for
every interference margin in the sweep computes slot counts for the
requested scheduling modes:

  soft      component schedule from the matrix game, solved exactly
            (length of the extracted integer schedule)
  coloring  greedy hard coloring in link-index order
  none      one activation per slot, no spatial reuse

Replications use seed streams derived from (root seed, run id), so results
are reproducible and order-independent. A replication thresholds its
received powers at every margin in one ``conflict_stack`` call, colors the
whole stack in one ``first_fit_stack`` pass and counts every margin's
coloring slots in one ``coloring_slots`` call. The soft mode builds its
margin's graph with ``build_conflict_graph`` only where that graph differs
from the previous margin's. It peels each such graph's universal links
(those that conflict with every link, so fire alone) and plays the game on
the rest. ``certified_schedule`` proves most games' value with a first-fit
schedule that meets a clique; ``finish_exact`` makes each of the others
exact, one game at a time. One loop then builds every record.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

# greedy_color is not called here; perfbench's tracer looks it up in this
# module with the stage functions that are.
from .coloring import coloring_slots, first_fit_stack, greedy_color  # noqa: F401
from .components import enumerate_maximal
from .conflict import ConflictGraph, build_conflict_graph, conflict_stack, link_powers
from .game import (
    SolverConfig,
    _count,
    build_payoff,
    certified_schedule,
    extract_schedule,
    finish_exact,
    fp_solve,
    verify_schedule,
)
from .topology import (
    Node,
    PropagationParams,
    RateVector,
    Session,
    accumulate_rates,
    generate_nodes,
    route_sessions,
)

MODE_ORDER = ("soft", "coloring", "none")
# Fictitious play, the paper's solver, fills only fp_iterations and converged;
# the exact finish reads nothing of it. At 1e-1 it stops after about two iterations a game.
_FP = SolverConfig(delta=1e-1)


@dataclass(frozen=True)
class ExperimentConfig:
    n_nodes: int = 10
    n_sessions: int = 10
    beta_min_db: float = 0.0
    beta_max_db: float = 30.0
    beta_step_db: float = 5.0
    alpha: float = 4.0
    poisson_mean: float = 5.0
    runs: int = 1000
    seed: int = 0
    modes: tuple[str, ...] = MODE_ORDER

    def __post_init__(self):
        for name, least in (("runs", 1), ("n_nodes", 1), ("n_sessions", 1), ("seed", None)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        pairs = self.n_nodes * (self.n_nodes - 1)
        if self.n_sessions > pairs:
            raise ValueError(
                f"n_sessions {self.n_sessions} exceeds the {pairs} distinct source-sink "
                f"pairs of {self.n_nodes} nodes"
            )
        for name in ("beta_min_db", "beta_max_db", "beta_step_db", "alpha", "poisson_mean"):
            value = getattr(self, name)
            # bool is an int, so True would otherwise run as 1.0.
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        betas = (self.beta_min_db, self.beta_max_db, self.beta_step_db)
        if not all(math.isfinite(b) for b in betas):
            raise ValueError(f"beta bounds and step must be finite, got {betas}")
        if not self.beta_step_db > 0:
            raise ValueError(f"beta_step_db must be positive, got {self.beta_step_db}")
        if self.beta_min_db > self.beta_max_db:
            raise ValueError(
                f"beta_min_db {self.beta_min_db} exceeds beta_max_db {self.beta_max_db}"
            )
        # Zero draws are redrawn, and below 1e-3 fewer than 0.1% of draws are positive.
        if not self.poisson_mean >= 1e-3:
            raise ValueError(f"poisson_mean must be positive and >= 1e-3, got {self.poisson_mean}")
        # The path-loss settings are checked where they are defined.
        PropagationParams(alpha=self.alpha)
        if isinstance(self.modes, str):
            raise ValueError(f"modes must be a list of mode names, not the string {self.modes!r}")
        bad = [m for m in self.modes if m not in MODE_ORDER]
        if bad or not self.modes:
            raise ValueError(f"modes must be a nonempty subset of {MODE_ORDER}, got {self.modes}")
        # Canonicalize: fixed mode order regardless of how they were given.
        object.__setattr__(
            self, "modes", tuple(m for m in MODE_ORDER if m in self.modes)
        )

    def beta_values(self) -> tuple[float, ...]:
        out = []
        i = 0
        while True:
            b = self.beta_min_db + i * self.beta_step_db
            if b > self.beta_max_db + 1e-9:
                break
            out.append(b)
            i += 1
        return tuple(out)


@dataclass(frozen=True)
class Fixture:
    """A pre-built instance: either a topology (with sessions) or a bare conflict graph."""

    kind: str  # "topology" or "conflict"
    nodes: tuple[Node, ...] | None = None
    sessions: tuple[Session, ...] | None = None
    graph: ConflictGraph | None = None
    rates: RateVector | None = None


def _topology_fixture(data) -> Fixture:
    nodes = sorted((Node(_count(n["id"], "node id"), (float(n["x"]), float(n["y"])),
                         float(n.get("tx_power_db", 0.0))) for n in data["nodes"]),
                   key=lambda n: n.id)
    if [n.id for n in nodes] != list(range(len(nodes))):
        raise ValueError("node ids must be dense 0..N-1")
    for n in nodes:
        if not (0.0 <= n.position[0] <= 1.0 and 0.0 <= n.position[1] <= 1.0):
            raise ValueError(f"node {n.id} position {n.position} outside unit square")
        if not math.isfinite(n.tx_power_db):
            raise ValueError(f"node {n.id} tx_power_db {n.tx_power_db} is not finite")
    sessions = [Session(*(_count(s[k], f"session {k}") for k in ("source", "sink", "packets")))
                for s in data["sessions"]]
    for s in sessions:
        if not (0 <= s.source < len(nodes) and 0 <= s.sink < len(nodes)):
            raise ValueError(f"session {s.source}->{s.sink} references unknown node")
    if not any(s.packets for s in sessions):
        raise ValueError("no session carries a packet, so no link would be scheduled")
    return Fixture("topology", nodes=tuple(nodes), sessions=tuple(sessions))


def _conflict_fixture(data) -> Fixture:
    n_links = _count(data["n_links"], "n_links", least=1)
    pairs = [(_count(i, "conflict pair index"), _count(j, "conflict pair index"))
             for i, j in data["conflicts"]]
    rates = tuple(_count(r, "rate", least=1) for r in data["rates"])
    if len(rates) != n_links:
        raise ValueError(f"{len(rates)} rates for {n_links} links")
    return Fixture("conflict", graph=ConflictGraph.from_pairs(n_links, pairs),
                   rates=RateVector(rates))


def load_fixture(path) -> Fixture:
    """Read a fixture file, a topology or a conflict graph told apart by its keys.

    Topology: {"nodes": [{id, x, y, tx_power_db?}], "sessions": [{source, sink, packets}]}.
    Conflict graph: {"n_links": L, "conflicts": [[i, j], ...], "rates": [L rates]}.
    Counts must be whole numbers, rates at least 1 and some session's
    packets at least 1; a malformed fixture raises ValueError naming the path.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
            if "nodes" in data:
                return _topology_fixture(data)
            if "n_links" in data:
                return _conflict_fixture(data)
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    raise ValueError(f"{path}: no 'nodes' (topology fixture) or 'n_links' (conflict fixture)")


@dataclass(slots=True)
class ResultRecord:
    """One (run, beta, mode) cell of a sweep: a row of the detail CSV, columns in field order.

    Slotted and mutable, so unhashable; a sweep builds many of them, and
    ``run_instance`` passes every field positionally. The game fields stay
    None outside the soft mode.
    """

    run_id: int
    mode: str
    beta_db: float
    n_nodes: int
    n_sessions: int
    total_packets: int
    total_link_activations: int
    slots: int
    avg_slots_per_packet: float
    value_lower: float | None = None
    value_upper: float | None = None
    fp_iterations: int | None = None
    converged: bool | None = None


@dataclass(slots=True)
class SweepRow:
    """One (beta, mode) row of the aggregated CSV, columns in field order.

    Slotted, mutable and unhashable, like ``ResultRecord``.
    """

    n_nodes: int
    n_sessions: int
    beta_db: float
    mode: str
    runs: int
    mean_avg_slots_per_packet: float
    stderr: float
    mean_gain_vs_coloring: float | None


# CSV columns are the dataclass fields, in declaration order.
RESULTS_HEADER = ",".join(f.name for f in fields(SweepRow))
DETAIL_HEADER = ",".join(f.name for f in fields(ResultRecord))


def _positive_poisson(rng, mean: float) -> int:
    # Redraw zeros so every session carries at least one packet.
    while True:
        v = int(rng.poisson(mean))
        if v >= 1:
            return v


def _derive_streams(seed: int, run_id: int) -> tuple[int, int, int]:
    root = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, run_id])
    node_seed, pair_seed, packet_seed = root.generate_state(3, np.uint64)
    return int(node_seed), int(pair_seed), int(packet_seed)


def _generate_instance(cfg: ExperimentConfig, run_id: int) -> tuple[list[Node], list[Session]]:
    node_seed, pair_seed, packet_seed = _derive_streams(cfg.seed, run_id)
    nodes = generate_nodes(cfg.n_nodes, node_seed)
    # Pick p is the p-th ordered pair (i, j), i != j, in row-major order.
    others = cfg.n_nodes - 1
    pair_rng = np.random.default_rng(pair_seed)
    picks = pair_rng.choice(cfg.n_nodes * others, size=cfg.n_sessions, replace=False)
    packet_rng = np.random.default_rng(packet_seed)
    sessions = [Session(i, k + (k >= i), _positive_poisson(packet_rng, cfg.poisson_mean))
                for i, k in (divmod(p, others) for p in picks.tolist())]
    return nodes, sessions


def _peel(g: ConflictGraph, rates: RateVector) -> tuple[int, ConflictGraph, RateVector]:
    """Split off the links that conflict with every link: their rates' exact sum, and the rest.

    Such a link only ever fires alone, so it needs its rate in slots of its
    own whatever the others do (the forced-singleton reduction of LP presolve).
    With no such link, g and rates come back as they are.
    """
    universal = g.adjacency.all(axis=1)
    if not universal.any():
        return 0, g, rates
    kept = ~universal
    return (sum(itertools.compress(rates.rates, universal.tolist())),
            ConflictGraph(int(kept.sum()), g.adjacency[kept][:, kept]),
            RateVector(tuple(itertools.compress(rates.rates, kept.tolist()))))


def _soft_fields(graphs: list[ConflictGraph], rates: RateVector) -> list[tuple]:
    """Each graph's soft fields: FP at delta 1e-1, the certificate, the exact finish of the rest.

    Each entry is (slots, value_lower, value_upper, fp_iterations,
    converged), in record field order. Each graph's universal links are
    peeled first (``_peel``); ``run_instance`` says how the fields account
    for them. A game ``certified_schedule`` certifies at T slots has both
    bounds 1/T and, as components, its schedule's own slot sets, which need
    not be maximal; extraction from y = counts / T gives that schedule back.
    Every other game is made exact by ``finish_exact``, one game at a time,
    and its schedule extracted from the finish's y over the maximal
    components.
    """
    # Stage by stage over all the games, not one loop per game: interleaving
    # the stages measured each 10-30% slower per call, and desk 6% slower.
    fields, games = [], []
    for g in graphs:
        peeled, rest, rest_rates = _peel(g, rates)
        if not rest.n_links:
            fields.append((peeled, 1 / peeled, 1 / peeled, 0, True))
            continue
        comps = enumerate_maximal(rest)
        games.append((len(fields), peeled, rest, rest_rates, comps,
                      build_payoff(comps, rest_rates)))
        fields.append(None)
    fps = [fp_solve(game[-1], _FP) for game in games]
    certified = [certified_schedule(game[2], game[3]) for game in games]
    for (k, peeled, rest, rest_rates, comps, payoff), fp, cert in zip(games, fps, certified):
        if cert is None:
            sol = finish_exact(payoff)
            y, lower, upper = sol.y, sol.value_lower, sol.value_upper
        else:
            comps, counts = cert
            n_slots = sum(counts)
            y, lower, upper = np.array(counts) / n_slots, 1 / n_slots, 1 / n_slots
        schedule = extract_schedule(comps, rest_rates, y, lower)
        check = verify_schedule(schedule, rest, rest_rates)
        if not check:
            raise RuntimeError(f"extracted schedule failed verification: {check.violation}")
        if peeled:
            lower, upper = 1 / (peeled + 1 / lower), 1 / (peeled + 1 / upper)
        fields[k] = (peeled + schedule.length, lower, upper, fp.iterations, fp.converged)
    return fields


def run_instance(cfg: ExperimentConfig, run_id: int,
                 fixture: Fixture | None = None) -> list[ResultRecord]:
    """One replication: one record per (beta, mode), betas ascending, modes in MODE_ORDER.

    Deterministic for a fixed (cfg, run_id). Records carry the instance's own
    node and session counts. A conflict fixture has neither, so both are 0;
    it has no geometry either, so the beta sweep collapses to a single NaN
    entry and each link's rate doubles as its packet demand.

    Every margin's conflict matrix comes from one ``conflict_stack`` call,
    one ``first_fit_stack`` pass gives every margin's coloring (greedy, in
    link-index order) and one ``coloring_slots`` call counts them all; the
    no-reuse count is the rates' sum at every margin. The soft mode builds
    its margin's graph with ``build_conflict_graph`` and solves it, except
    where the matrix equals the previous margin's: then the previous soft
    fields are reused, which is exact because the solvers are deterministic
    functions of the graph and the rates. Neighbouring margins often give
    the same graph, most often the complete graph at the top of the sweep.

    The soft mode runs in two passes (``_soft_fields``). The first peels
    each solved margin's universal links, whose rates add exactly as
    Python ints, and builds the game on the rest: components, payoff and
    fictitious play. ``certified_schedule`` then tries each game: a
    first-fit schedule of T slots that meets a clique of weight T proves
    the value 1/T, so both bounds are 1/T. The second pass makes each
    other game exact with ``finish_exact``, one game at a time, extracts
    and verifies each schedule on the rest and builds the fields: slots are
    the peeled rates plus the schedule's length, and each bound v becomes
    1 / (peeled + 1/v). A certified schedule's components are its own slot sets, which
    need not be maximal. A margin whose graph is complete has no game: its
    slots are the rates' sum, and ``fp_iterations=0`` with
    ``converged=true`` says that nothing was iterated.
    """
    if fixture is not None and fixture.kind == "conflict":
        rates, powers = fixture.rates, None
        betas, stack = (math.nan,), fixture.graph.adjacency[None]
        n_nodes = n_sessions = 0
        packets = rates.total()
    else:
        if fixture is not None:
            nodes, sessions = list(fixture.nodes), list(fixture.sessions)
        else:
            nodes, sessions = _generate_instance(cfg, run_id)
        params = PropagationParams(alpha=cfg.alpha)
        paths = route_sessions(nodes, sessions, params)
        links, rates = accumulate_rates(paths, sessions)
        n_nodes, n_sessions = len(nodes), len(sessions)
        packets = sum(s.packets for s in sessions)
        betas = cfg.beta_values()
        powers = link_powers(links, nodes, params)
        stack = conflict_stack(powers, betas)
    total = rates.total()
    hard = coloring_slots(first_fit_stack(stack), rates) if "coloring" in cfg.modes else None
    solved = []
    if "soft" in cfg.modes:
        repeats = (stack[1:] == stack[:-1]).all(axis=(1, 2))
        solved = [b for b in range(len(betas)) if not (b and repeats[b - 1])]
    graphs = [fixture.graph if powers is None else build_conflict_graph(powers, betas[b])
              for b in solved]
    solved_fields = dict(zip(solved, _soft_fields(graphs, rates)))
    records, soft = [], None
    for b, beta in enumerate(betas):
        soft = solved_fields.get(b, soft)  # a repeated margin keeps the previous one's
        for mode in cfg.modes:
            slots, *game = soft if mode == "soft" else (hard[b] if mode == "coloring" else total,)
            records.append(ResultRecord(run_id, mode, beta, n_nodes, n_sessions, packets, total,
                                        slots, slots / packets, *game))
    return records


class RunError(RuntimeError):
    """A replication failed; the exception it raised is the ``__cause__``."""


def run_sweep(cfg: ExperimentConfig,
              fixture: Fixture | None = None) -> tuple[list[SweepRow], list[ResultRecord]]:
    """All replications plus the aggregated per-(beta, mode) table.

    A failed replication raises RunError naming its run id. Every run emits
    its records in the same (beta, mode) order, so table row k aggregates
    every per-run-th record from k: one per run, in run order, which fixes
    the order of every sum. The soft row's gain pairs it with the next row,
    coloring at the same beta.
    """
    if fixture is not None and "soft" in cfg.modes and sys.float_info.max < (
            fixture.rates.total() if fixture.kind == "conflict"
            else sum(s.packets for s in fixture.sessions)):
        raise ValueError("the fixture's demand is past float range, where the soft mode cannot "
                         "solve it; --modes coloring,none counts it exactly")
    records: list[ResultRecord] = []
    for run_id in range(cfg.runs):
        try:
            records.extend(run_instance(cfg, run_id, fixture))
        except Exception as exc:
            raise RunError(f"run {run_id}: {exc}") from exc

    per_run = len(records) // cfg.runs
    groups = [records[k::per_run] for k in range(per_run)]
    rows = []
    for k, group in enumerate(groups):
        values = [rec.avg_slots_per_packet for rec in group]
        mean = sum(values) / len(values)
        if len(values) >= 2:
            spread = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
            stderr = spread / math.sqrt(len(values))
        else:
            stderr = 0.0
        first = group[0]
        gain = None
        if first.mode == "soft" and "coloring" in cfg.modes:
            gains = [1.0 - soft.slots / hard.slots for soft, hard in zip(group, groups[k + 1])]
            gain = sum(gains) / len(gains)
        rows.append(SweepRow(
            n_nodes=first.n_nodes, n_sessions=first.n_sessions, beta_db=first.beta_db,
            mode=first.mode, runs=len(group), mean_avg_slots_per_packet=mean,
            stderr=stderr, mean_gain_vs_coloring=gain,
        ))
    return rows, records


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


# Formatters of a column whose values all have one of these exact types;
# each gives the bytes _csv_cell gives a value of that type.
_COLUMN_FORMAT = {
    float: lambda col: map(float.__format__, col, itertools.repeat(".9g")),
    int: lambda col: map(str, col),
    str: lambda col: col,
    type(None): lambda col: itertools.repeat("", len(col)),
}


def _write_csv(rows, header: str, path) -> None:
    """Write ``header`` and one line per row, formatted a column at a time.

    The rows are transposed once. A column whose values all have the same
    exact type, ``float``, ``int``, ``str`` or None, is formatted by one
    map; any other column (``bool``, numpy scalars, mixed types) goes
    through ``_csv_cell`` value by value, so both give the same bytes.
    """
    columns = []
    for col in zip(*map(operator.attrgetter(*header.split(",")), rows)):
        kinds = set(map(type, col))
        fmt = _COLUMN_FORMAT.get(kinds.pop()) if len(kinds) == 1 else None
        columns.append(fmt(col) if fmt else map(_csv_cell, col))
    lines = [header, *map(",".join, zip(*columns))]
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def write_results(table: list[SweepRow], path) -> None:
    """Aggregated CSV: LF line endings, '.' decimals, 9 significant digits."""
    _write_csv(table, RESULTS_HEADER, path)


def write_detail(records: list[ResultRecord], path) -> None:
    """Optional per-run CSV with the raw metric numerators and denominators."""
    _write_csv(records, DETAIL_HEADER, path)
