"""Monte-Carlo experiment harness: sweeps, replication, aggregation, CSV output.

Each replication generates a random instance, routes the sessions, then for
every interference margin in the sweep computes slot counts for the
requested scheduling modes:

  soft      component schedule from the matrix game (length of the
            extracted integer schedule)
  coloring  greedy hard coloring in link-index order
  none      one activation per slot, no spatial reuse

Replications use seed streams derived from (root seed, run id), so results
are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import coloring_slots, greedy_color, no_schedule_slots
from .components import enumerate_maximal
from .conflict import (
    ConflictGraph,
    ConflictParams,
    build_conflict_graph,
    is_topology_fixture,
    load_conflict_fixture,
)
from .game import SolverConfig, build_payoff, extract_schedule, fp_solve, lp_oracle, verify_schedule
from .topology import (
    Node,
    PropagationParams,
    RateVector,
    Session,
    accumulate_rates,
    generate_nodes,
    load_topology_fixture,
    route_sessions,
)

MODE_ORDER = ("soft", "coloring", "none")

RESULTS_HEADER = (
    "n_nodes,n_sessions,beta_db,mode,runs,mean_avg_slots_per_packet,stderr,mean_gain_vs_coloring"
)
DETAIL_HEADER = (
    "run_id,mode,beta_db,n_nodes,n_sessions,total_packets,total_link_activations,"
    "slots,avg_slots_per_packet,value_lower,value_upper,fp_iterations,converged"
)


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
    solver: str = "fp"
    delta: float = 1e-3
    max_iterations: int = 1_000_000
    modes: tuple[str, ...] = MODE_ORDER

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be at least 1, got {self.n_sessions}")
        betas = (self.beta_min_db, self.beta_max_db, self.beta_step_db)
        if not all(math.isfinite(b) for b in betas):
            raise ValueError(f"beta bounds and step must be finite, got {betas}")
        if not self.beta_step_db > 0:
            raise ValueError(f"beta_step_db must be positive, got {self.beta_step_db}")
        if self.beta_min_db > self.beta_max_db:
            raise ValueError(
                f"beta_min_db {self.beta_min_db} exceeds beta_max_db {self.beta_max_db}"
            )
        if self.solver not in ("fp", "exact"):
            raise ValueError(f"solver must be 'fp' or 'exact', got {self.solver!r}")
        if self.poisson_mean <= 0:
            raise ValueError(f"poisson_mean must be positive, got {self.poisson_mean}")
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


def load_fixture(path) -> Fixture:
    if is_topology_fixture(path):
        nodes, sessions = load_topology_fixture(path)
        return Fixture("topology", nodes=tuple(nodes), sessions=tuple(sessions))
    graph, rates = load_conflict_fixture(path)
    if rates is None:
        raise ValueError(f"{path}: conflict fixtures used by the harness must carry 'rates'")
    return Fixture("conflict", graph=graph, rates=RateVector(rates))


@dataclass(frozen=True)
class ResultRecord:
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


@dataclass(frozen=True)
class SweepRow:
    n_nodes: int
    n_sessions: int
    beta_db: float
    mode: str
    runs: int
    mean_avg_slots_per_packet: float
    stderr: float
    mean_gain_vs_coloring: float | None


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
    ordered_pairs = [
        (i, j) for i in range(cfg.n_nodes) for j in range(cfg.n_nodes) if i != j
    ]
    if cfg.n_sessions > len(ordered_pairs):
        raise ValueError(
            f"{cfg.n_sessions} sessions requested but only {len(ordered_pairs)} "
            f"distinct source-sink pairs exist for {cfg.n_nodes} nodes"
        )
    pair_rng = np.random.default_rng(pair_seed)
    picks = pair_rng.choice(len(ordered_pairs), size=cfg.n_sessions, replace=False)
    packet_rng = np.random.default_rng(packet_seed)
    sessions = [
        Session(*ordered_pairs[int(p)], _positive_poisson(packet_rng, cfg.poisson_mean))
        for p in picks
    ]
    return nodes, sessions


def _soft_slots(g: ConflictGraph, rates: RateVector, cfg: ExperimentConfig):
    comps = enumerate_maximal(g)
    payoff = build_payoff(comps, rates)
    if cfg.solver == "exact":
        value, y = lp_oracle(payoff)
        lower = upper = value
        iterations, converged = 0, True
    else:
        sol = fp_solve(payoff, SolverConfig(delta=cfg.delta, max_iterations=cfg.max_iterations))
        y, lower, upper = sol.y, sol.value_lower, sol.value_upper
        iterations, converged = sol.iterations, sol.converged
    schedule = extract_schedule(comps, rates, y, lower)
    check = verify_schedule(schedule, g, rates)
    if not check:
        raise RuntimeError(f"extracted schedule failed verification: {check.violation}")
    return schedule.length, lower, upper, iterations, converged


def _mode_records(cfg: ExperimentConfig, run_id: int, beta_db: float, g: ConflictGraph,
                  rates: RateVector, total_packets: int) -> list[ResultRecord]:
    base = dict(
        run_id=run_id,
        beta_db=beta_db,
        n_nodes=cfg.n_nodes,
        n_sessions=cfg.n_sessions,
        total_packets=total_packets,
        total_link_activations=rates.total(),
    )
    records = []
    for mode in cfg.modes:
        extra = {}
        if mode == "soft":
            slots, lower, upper, iterations, converged = _soft_slots(g, rates, cfg)
            extra = dict(
                value_lower=lower, value_upper=upper,
                fp_iterations=iterations, converged=converged,
            )
        elif mode == "coloring":
            slots = coloring_slots(greedy_color(g, list(range(g.n_links))), rates)
        else:
            slots = no_schedule_slots(rates)
        records.append(
            ResultRecord(
                mode=mode, slots=slots,
                avg_slots_per_packet=slots / total_packets,
                **base, **extra,
            )
        )
    return records


def run_instance(cfg: ExperimentConfig, run_id: int,
                 fixture: Fixture | None = None) -> list[ResultRecord]:
    """One replication: one record per (beta, mode).

    Deterministic for a fixed (cfg, run_id). A conflict fixture has no
    geometry, so the beta sweep collapses to a single NaN entry and each
    link's rate doubles as its packet demand.
    """
    try:
        if fixture is not None and fixture.kind == "conflict":
            rates = fixture.rates
            return _mode_records(cfg, run_id, math.nan, fixture.graph, rates, rates.total())

        if fixture is not None:
            nodes, sessions = list(fixture.nodes), list(fixture.sessions)
        else:
            nodes, sessions = _generate_instance(cfg, run_id)
        params = PropagationParams(alpha=cfg.alpha)
        paths = route_sessions(nodes, sessions, params)
        links, rates = accumulate_rates(paths, sessions, nodes)
        if not links:
            raise ValueError("instance carries no traffic; nothing to schedule")
        total_packets = sum(s.packets for s in sessions)
        records = []
        for beta in cfg.beta_values():
            g = build_conflict_graph(links, nodes, ConflictParams(beta, params))
            records.extend(_mode_records(cfg, run_id, beta, g, rates, total_packets))
        return records
    except Exception as exc:
        raise type(exc)(f"run {run_id}: {exc}") from exc


def run_sweep(cfg: ExperimentConfig,
              fixture: Fixture | None = None) -> tuple[list[SweepRow], list[ResultRecord]]:
    """All replications plus the aggregated per-(beta, mode) table.

    Aggregation iterates a deterministic ordered list of per-run records, so
    the table is invariant to how replications would be executed.
    """
    records: list[ResultRecord] = []
    for run_id in range(cfg.runs):
        records.extend(run_instance(cfg, run_id, fixture))

    # One pass groups the records by (beta, mode), each group in record order
    # so every sum below adds up in the same order. NaN betas (conflict
    # fixtures) all map to the single key math.nan, which a dict finds by
    # identity although NaN != NaN.
    groups: dict[float, dict[str, list[ResultRecord]]] = {}
    for rec in records:
        beta = math.nan if math.isnan(rec.beta_db) else rec.beta_db
        groups.setdefault(beta, {mode: [] for mode in cfg.modes})[rec.mode].append(rec)

    rows = []
    for beta in sorted(groups, key=lambda b: (math.isnan(b), b)):
        by_mode = groups[beta]
        for mode in cfg.modes:
            values = [rec.avg_slots_per_packet for rec in by_mode[mode]]
            mean = sum(values) / len(values)
            if len(values) >= 2:
                spread = math.sqrt(
                    sum((v - mean) ** 2 for v in values) / (len(values) - 1)
                )
                stderr = spread / math.sqrt(len(values))
            else:
                stderr = 0.0
            gain = None
            if mode == "soft" and "coloring" in cfg.modes:
                soft = {rec.run_id: rec.slots for rec in by_mode["soft"]}
                hard = {rec.run_id: rec.slots for rec in by_mode["coloring"]}
                gains = [1.0 - soft[rid] / hard[rid] for rid in sorted(soft)]
                gain = sum(gains) / len(gains)
            rows.append(
                SweepRow(
                    n_nodes=cfg.n_nodes,
                    n_sessions=cfg.n_sessions,
                    beta_db=beta,
                    mode=mode,
                    runs=cfg.runs,
                    mean_avg_slots_per_packet=mean,
                    stderr=stderr,
                    mean_gain_vs_coloring=gain,
                )
            )
    return rows, records


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_lines(path, lines):
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def write_results(table: list[SweepRow], path) -> None:
    """Aggregated CSV: LF line endings, '.' decimals, 9 significant digits."""
    lines = [RESULTS_HEADER]
    for row in table:
        lines.append(
            ",".join(
                _csv_cell(v)
                for v in (
                    row.n_nodes, row.n_sessions, row.beta_db, row.mode, row.runs,
                    row.mean_avg_slots_per_packet, row.stderr, row.mean_gain_vs_coloring,
                )
            )
        )
    _write_lines(path, lines)


def write_detail(records: list[ResultRecord], path) -> None:
    """Optional per-run CSV with the raw metric numerators and denominators."""
    lines = [DETAIL_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                _csv_cell(v)
                for v in (
                    rec.run_id, rec.mode, rec.beta_db, rec.n_nodes, rec.n_sessions,
                    rec.total_packets, rec.total_link_activations, rec.slots,
                    rec.avg_slots_per_packet, rec.value_lower, rec.value_upper,
                    rec.fp_iterations, rec.converged,
                )
            )
        )
    _write_lines(path, lines)
