import csv
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softsched import (
    ConflictGraph,
    ExperimentConfig,
    Fixture,
    PropagationParams,
    RateVector,
    ResultRecord,
    RunError,
    Schedule,
    SolverConfig,
    SweepRow,
    accumulate_rates,
    build_conflict_graph,
    build_payoff,
    enumerate_maximal,
    finish_exact,
    fp_solve,
    link_powers,
    load_fixture,
    route_sessions,
    run_instance,
    run_sweep,
    verify_schedule,
    write_detail,
    write_results,
)
import softsched.game as game
import softsched.harness as harness
from softsched.cli import _config_from_args, build_parser, main
from softsched.harness import DETAIL_HEADER, RESULTS_HEADER, _derive_streams, _generate_instance

from conftest import (
    assert_same_solution,
    extract_schedule_reference,
    fp_reference,
    generate_instance_reference,
    lp_oracle,
    random_conflict_graph,
    run_instance_reference,
    unpeel_schedule,
    verify_schedule_reference,
    write_csv_reference,
)

THREE_LINK_FIXTURE = "fixtures/three_link.json"
RELAY_FIXTURE = "fixtures/relay_topology.json"  # three collinear nodes, one 0->2 session


def small_cfg(**overrides):
    base = dict(
        n_nodes=7, n_sessions=3, runs=2, seed=5,
        beta_min_db=0.0, beta_max_db=20.0, beta_step_db=10.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_three_link_fixture_slot_counts():
    fixture = load_fixture(THREE_LINK_FIXTURE)
    records = run_instance(ExperimentConfig(runs=1), 0, fixture)
    by_mode = {rec.mode: rec for rec in records}
    assert by_mode["soft"].slots == 3
    assert by_mode["coloring"].slots == 5
    assert by_mode["none"].slots == 6
    assert math.isnan(by_mode["soft"].beta_db)
    assert by_mode["soft"].converged is True
    assert by_mode["coloring"].value_lower is None


def test_topology_fixture_keeps_beta_sweep():
    fixture = load_fixture(RELAY_FIXTURE)
    assert fixture.kind == "topology"
    cfg = small_cfg(runs=1)
    records = run_instance(cfg, 0, fixture)
    # relayed route gives two links; the sweep still produces every beta
    assert sorted({r.beta_db for r in records}) == [0.0, 10.0, 20.0]
    assert all(r.total_packets == 2 for r in records)
    none_slots = {r.slots for r in records if r.mode == "none"}
    assert none_slots == {4}  # 2 packets over 2 hops
    # fixture instances ignore the per-run topology stream entirely
    strip = [dataclasses.replace(r, run_id=-1) for r in run_instance(cfg, 3, fixture)]
    assert strip == [dataclasses.replace(r, run_id=-1) for r in records]


def _reference_table(cfg, records):
    """The sweep table recomputed by grouping records on (beta, mode), NaN beta as None.

    Each row is (n_nodes, n_sessions, beta, mode, runs, mean, stderr, gain),
    with the gain paired with coloring by run id.
    """
    groups = {}
    for rec in records:
        beta = None if math.isnan(rec.beta_db) else rec.beta_db
        groups.setdefault(beta, {}).setdefault(rec.mode, {})[rec.run_id] = rec
    rows = []
    for beta in sorted(groups, key=lambda b: -math.inf if b is None else b):
        by_mode = groups[beta]
        for mode in cfg.modes:
            by_run = by_mode[mode]
            values = [by_run[rid].avg_slots_per_packet for rid in sorted(by_run)]
            stderr = statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
            gain = None
            if mode == "soft" and "coloring" in cfg.modes:
                hard = by_mode["coloring"]
                gain = statistics.fmean(1.0 - by_run[rid].slots / hard[rid].slots for rid in by_run)
            first = by_run[min(by_run)]
            rows.append((first.n_nodes, first.n_sessions, beta, mode, len(values),
                         statistics.fmean(values), stderr, gain))
    return rows


@pytest.mark.parametrize("modes", [("soft", "coloring", "none"), ("soft", "none"),
                                   ("coloring", "none"), ("none",)])
@pytest.mark.parametrize("fixture_path", [None, THREE_LINK_FIXTURE])
def test_table_matches_records_grouped_by_beta_and_mode(modes, fixture_path):
    cfg = small_cfg(runs=3, modes=modes)  # three betas for generated instances
    fixture = load_fixture(fixture_path) if fixture_path else None
    table, records = run_sweep(cfg, fixture)
    expected = _reference_table(cfg, records)
    assert len(table) == len(expected)
    for row, (n_nodes, n_sessions, beta, mode, runs, mean, stderr, gain) in zip(table, expected):
        assert (row.n_nodes, row.n_sessions, row.mode, row.runs) == (n_nodes, n_sessions, mode, runs)
        assert (None if math.isnan(row.beta_db) else row.beta_db) == beta
        assert row.mean_avg_slots_per_packet == pytest.approx(mean, rel=1e-12)
        assert row.stderr == pytest.approx(stderr, rel=1e-9, abs=1e-15)
        if gain is None:
            assert row.mean_gain_vs_coloring is None
        else:
            assert row.mean_gain_vs_coloring == pytest.approx(gain, rel=1e-12, abs=1e-15)


def test_fixture_rows_carry_the_fixture_sizes(tmp_path):
    # A topology fixture reports its own node and session counts, not the
    # configuration's; a conflict fixture has neither and reports 0 for both.
    for path, prefix in ((RELAY_FIXTURE, "3,1,"), (THREE_LINK_FIXTURE, "0,0,")):
        out, detail = tmp_path / "agg.csv", tmp_path / "runs.csv"
        assert main(["--fixture", path, "--runs", "2", "--out", str(out),
                     "--detail", str(detail)]) == 0
        body = out.read_text().strip().split("\n")[1:]
        assert body and all(line.startswith(prefix) for line in body), body
        with open(detail, newline="") as fh:
            sizes = {(row["n_nodes"], row["n_sessions"]) for row in csv.DictReader(fh)}
        assert sizes == {tuple(prefix.split(",")[:2])}


class _TwoArgumentError(Exception):
    """Like numpy's _ArrayMemoryError: its constructor takes more than a message."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def test_failed_run_raises_run_error_with_the_original_cause(monkeypatch):
    original = _TwoArgumentError("out of memory", 42)

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr(harness, "conflict_stack", fail)
    with pytest.raises(RunError, match="^run 0: out of memory$") as info:
        run_sweep(small_cfg())
    assert info.value.__cause__ is original
    # A single replication raises the original exception itself.
    with pytest.raises(_TwoArgumentError) as info:
        run_instance(small_cfg(), 1)
    assert info.value is original


def test_run_instance_deterministic():
    cfg = small_cfg()
    assert run_instance(cfg, 1) == run_instance(cfg, 1)
    # different run ids draw different instances
    assert run_instance(cfg, 0) != run_instance(cfg, 1)


def _without_nan(records):
    """Records with a NaN beta_db set to None, so that equal records compare equal."""
    return [dataclasses.replace(r, beta_db=None) if math.isnan(r.beta_db) else r
            for r in records]


@pytest.mark.parametrize("fixture_path", [None, RELAY_FIXTURE, THREE_LINK_FIXTURE])
def test_coloring_records_match_per_margin_greedy_color(fixture_path):
    # One first-fit pass over the margin stack gives each margin's coloring;
    # the reference colors each margin's own graph with greedy_color.
    cfg = ExperimentConfig(n_nodes=20, n_sessions=10, beta_min_db=0.0, beta_max_db=60.0,
                           beta_step_db=2.0, runs=1, modes=("coloring", "none"))
    fixture = load_fixture(fixture_path) if fixture_path else None
    for run_id in range(3):
        assert (_without_nan(run_instance(cfg, run_id, fixture))
                == _without_nan(run_instance_reference(cfg, run_id, fixture)))


@pytest.mark.parametrize("run_id", range(4))
def test_saturating_margins_reuse_the_previous_records(monkeypatch, run_id):
    # Margins of 20-60 dB saturate: neighbouring ones often give one graph,
    # and the soft game is solved once per distinct graph that keeps a link
    # some other link can share a slot with (a complete graph has no game).
    cfg = ExperimentConfig(beta_min_db=20.0, beta_max_db=60.0, beta_step_db=5.0, runs=1)
    want = run_instance_reference(cfg, run_id)
    solves = []
    monkeypatch.setattr(harness, "fp_solve", lambda *args: solves.append(args) or fp_solve(*args))
    assert run_instance(cfg, run_id) == want
    # Graphs only gain conflicts as the margin grows, so equal graphs are neighbours.
    params = PropagationParams(alpha=cfg.alpha)
    nodes, sessions = _generate_instance(cfg, run_id)
    links, _ = accumulate_rates(route_sessions(nodes, sessions, params), sessions)
    powers = link_powers(links, nodes, params)
    graphs = [build_conflict_graph(powers, beta) for beta in cfg.beta_values()]
    distinct = {g.adjacency.tobytes() for g in graphs if not g.adjacency.all(axis=1).all()}
    assert len(solves) == len(distinct) < len(graphs)


@settings(max_examples=100, deadline=None)
@given(n_nodes=st.integers(2, 10), n_sessions=st.integers(1, 10), seed=st.integers(0, 10_000),
       run_id=st.integers(0, 10_000), beta_min=st.integers(-10, 30), span=st.integers(0, 40),
       step=st.sampled_from([2.5, 5.0, 10.0]),
       modes=st.sets(st.sampled_from(("soft", "coloring", "none")), min_size=1),
       fixture_path=st.sampled_from([None, RELAY_FIXTURE, THREE_LINK_FIXTURE]))
def test_run_instance_matches_reference_without_reuse(n_nodes, n_sessions, seed, run_id,
                                                      beta_min, span, step, modes,
                                                      fixture_path):
    # High margins saturate into repeated graphs; the reference shares nothing
    # between margins, so reuse must not change a single record.
    cfg = ExperimentConfig(
        n_nodes=n_nodes, n_sessions=min(n_sessions, n_nodes * (n_nodes - 1)), seed=seed,
        beta_min_db=float(beta_min), beta_max_db=float(beta_min + span), beta_step_db=step,
        modes=tuple(modes), runs=1,
    )
    fixture = load_fixture(fixture_path) if fixture_path else None
    assert (_without_nan(run_instance(cfg, run_id, fixture))
            == _without_nan(run_instance_reference(cfg, run_id, fixture)))


def test_sweep_csvs_match_reference_solver_and_rounding(tmp_path, monkeypatch):
    # Paper-default instances: the dense fictitious play and the slot-by-slot
    # trim of tests/conftest.py give the same bytes as the library's fast paths.
    # The CSVs leave out x and the solver state, so every game the sweep solves
    # is also compared with the dense reference field by field. The sweep
    # runs FP at delta 1e-1; wrappers of fp_solve stand in other budgets, and
    # the CSVs must not depend on them. A budget that runs out before every
    # link is covered leaves FP's lower bound at 0; the sweep still finishes,
    # and every soft schedule is feasible and no shorter than the bracket
    # allows. Budgets of 5 and 20 iterations run at delta 1e-2, which some
    # game does not reach within them; every game of these sweeps reaches
    # delta 1e-1 within 5.
    cfg = ExperimentConfig(runs=3, seed=11)
    for max_iterations, delta in ((1_000_000, 1e-1), (1, 1e-1), (5, 1e-2), (20, 1e-2)):
        budget = SolverConfig(delta, max_iterations)

        def sweep_bytes(tag):
            table, records = run_sweep(cfg)
            paths = [tmp_path / f"{tag}-{max_iterations}{suffix}.csv" for suffix in ("", "-detail")]
            write_results(table, paths[0])
            write_detail(records, paths[1])
            for rec in records:
                if rec.mode == "soft":
                    assert rec.slots >= math.ceil(1 / rec.value_upper - 1e-9)
            return [path.read_bytes() for path in paths]

        solved, checked = [], []

        def checked_fp_solve(H, solver_cfg):
            assert solver_cfg == SolverConfig(delta=1e-1)
            sol = fp_solve(H, budget)
            assert_same_solution(sol, fp_reference(H, budget))
            solved.append(H.h.shape)
            return sol

        def checked_verify(schedule, g, rates):
            checked.append(verify_schedule_reference(schedule, g, rates))
            return checked[-1]

        monkeypatch.setattr(harness, "fp_solve", checked_fp_solve)
        monkeypatch.setattr(harness, "verify_schedule", checked_verify)
        fast = sweep_bytes("fast")
        assert len(solved) > 10 and max(shape[1] for shape in solved) > 10
        assert len(checked) == len(solved) and all(checked)
        assert (b"false" in fast[1]) == (max_iterations < 1_000_000)
        monkeypatch.setattr(harness, "fp_solve", lambda H, solver_cfg: fp_reference(H, budget))
        monkeypatch.setattr(harness, "extract_schedule", extract_schedule_reference)
        assert sweep_bytes("reference") == fast
        monkeypatch.undo()


# A game of desk chunk seed 31 (ExperimentConfig(seed=31), N=10/S=10, beta
# 0-30 step 5), run 6 at 0 dB: 18 links and 126 maximal components, wider
# than 4L, which the certificate misses.
WIDE_MISSED_PAIRS = [
    (0, 1), (0, 6), (0, 14), (0, 15), (0, 16), (1, 2), (1, 3), (1, 6), (1, 7), (1, 10), (1, 13),
    (1, 14), (1, 15), (2, 3), (2, 10), (2, 13), (2, 14), (3, 7), (3, 10), (3, 12), (3, 13),
    (4, 5), (4, 6), (4, 14), (4, 16), (5, 6), (5, 14), (5, 16), (6, 14), (6, 15), (6, 16),
    (7, 8), (7, 9), (7, 11), (7, 12), (7, 13), (7, 17), (8, 9), (8, 11), (8, 12), (8, 17),
    (9, 11), (9, 17), (10, 12), (10, 13), (10, 14), (11, 12), (11, 17), (12, 13), (12, 17),
    (13, 14), (14, 15), (14, 16), (15, 16),
]
WIDE_MISSED_GAME = Fixture("conflict", graph=ConflictGraph.from_pairs(18, WIDE_MISSED_PAIRS),
                           rates=RateVector((17, 17, 21, 29, 12, 4, 4, 19, 11, 8, 11, 10, 10, 5, 5,
                                             5, 5, 5)))


@st.composite
def conflict_fixtures(draw):
    """A conflict fixture of 1-12 links, each pair conflicting or not, and rates 1-30."""
    n_links = draw(st.integers(1, 12))
    pairs = [pair for pair in itertools.combinations(range(n_links), 2) if draw(st.booleans())]
    rates = draw(st.lists(st.integers(1, 30), min_size=n_links, max_size=n_links))
    return Fixture("conflict", graph=ConflictGraph.from_pairs(n_links, pairs),
                   rates=RateVector(tuple(rates)))


@settings(max_examples=60, deadline=None)
@given(fixture=conflict_fixtures(),
       fp=st.sampled_from([SolverConfig(delta=1e-1, max_iterations=1), SolverConfig(delta=1e-2)]))
@example(fixture=WIDE_MISSED_GAME, fp=SolverConfig(delta=1e-1, max_iterations=1))
# When FP's columns seeded the exact finish's pool, this FP run of 95
# iterations took the game to 83 slots, and the sweep's FP to 84.
@example(fixture=WIDE_MISSED_GAME, fp=SolverConfig(delta=1e-2))
def test_soft_records_do_not_depend_on_fictitious_play(fixture, fp):
    # FP fills only the iteration fields: with harness._FP cut to one
    # iteration, or run to delta 1e-2, every soft slot count and bound keeps
    # its bits.
    cfg = ExperimentConfig(runs=1, modes=("soft",))

    def soft_fields():
        [rec] = run_instance(cfg, 0, fixture)
        return rec.slots, rec.value_lower, rec.value_upper

    want = soft_fields()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_FP", fp)
        assert soft_fields() == want


def test_too_many_sessions_rejected():
    # Only 6 ordered pairs; the config is refused before any run.
    with pytest.raises(ValueError, match="^n_sessions 7 exceeds the 6 distinct"):
        small_cfg(n_nodes=3, n_sessions=7)
    assert small_cfg(n_nodes=3, n_sessions=6).n_sessions == 6


def test_mode_ordering_invariant_small():
    cfg = small_cfg(runs=4)
    _, records = run_sweep(cfg)
    keyed = {(r.run_id, r.beta_db, r.mode): r.slots for r in records}
    for (run_id, beta, mode), slots in keyed.items():
        if mode == "soft":
            assert slots <= keyed[(run_id, beta, "coloring")] <= keyed[(run_id, beta, "none")]


def test_without_the_clique_search_every_game_takes_the_lp_finish(tmp_path, monkeypatch):
    # With no node to search, no game is certified and each goes into the
    # exact finish, as every game did before the certificate: the CSVs
    # are the bytes the LP-only soft mode wrote for these two runs. With the
    # search, run 1's schedule at 0 dB is one slot shorter.
    cfg = ExperimentConfig(runs=2, seed=35)

    def sweep_digests(tag):
        table, records = run_sweep(cfg)
        paths = [tmp_path / f"{tag}{suffix}.csv" for suffix in ("", "-detail")]
        write_results(table, paths[0])
        write_detail(records, paths[1])
        return [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths], records

    certified, certified_records = sweep_digests("certified")
    solved, finished = [], []
    monkeypatch.setattr(game, "_CLIQUE_NODES", 0)
    monkeypatch.setattr(harness, "fp_solve",
                        lambda H, *args: solved.append(H) or fp_solve(H, *args))
    monkeypatch.setattr(harness, "finish_exact",
                        lambda H: finished.append(H) or finish_exact(H))
    digests, records = sweep_digests("lp")
    assert digests == ["0dedff6c11dfe02333f8c66dc2e84320f5455cace0c728452dc744849e95ce61",
                       "ff26360e7efa8d7b958dd9505b196fcb282b19de1fef2dffefcff97a64e25533"]
    assert finished == solved and solved
    changed = [(lp.run_id, lp.beta_db, lp.slots - new.slots)
               for lp, new in zip(records, certified_records) if lp.slots != new.slots]
    assert certified != digests and changed == [(1, 0.0, 1)]


@settings(max_examples=40, deadline=None)
@given(run_id=st.integers(0, 10_000), beta=st.integers(0, 30))
def test_fp_brackets_contain_exact_value_on_routed_instances(run_id, beta):
    # Paper-default instances (10 nodes, 10 sessions), up to about a hundred
    # components: far past what an exponential-time exact solver reaches.
    cfg = ExperimentConfig()
    params = PropagationParams(alpha=cfg.alpha)
    nodes, sessions = _generate_instance(cfg, run_id)
    links, rates = accumulate_rates(route_sessions(nodes, sessions, params), sessions)
    g = build_conflict_graph(link_powers(links, nodes, params), float(beta))
    H = build_payoff(enumerate_maximal(g), rates)
    value, _ = lp_oracle(H)
    sol = fp_solve(H, SolverConfig(delta=1e-1), log_bounds=True)
    for lower, upper in sol.bounds_log:
        assert lower <= value + 1e-12
        assert upper >= value - 1e-12


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(2, 8), n_sessions=st.integers(1, 8), seed=st.integers(0, 10_000),
       run_id=st.integers(0, 10_000))
def test_soft_records_are_exact_and_within_their_gap_of_the_integer_optimum(
        n_nodes, n_sessions, seed, run_id):
    # Every soft record's bracket is the LP value, and the integer optimum
    # over all maximal components (milp) is no more than the reported gap,
    # slots - ceil(1/value_upper), below the soft schedule.
    from scipy.optimize import LinearConstraint, milp

    cfg = ExperimentConfig(
        n_nodes=n_nodes, n_sessions=min(n_sessions, n_nodes * (n_nodes - 1)), seed=seed,
        beta_min_db=0.0, beta_max_db=30.0, beta_step_db=10.0, modes=("soft",),
    )
    params = PropagationParams(alpha=cfg.alpha)
    nodes, sessions = _generate_instance(cfg, run_id)
    links, rates = accumulate_rates(route_sessions(nodes, sessions, params), sessions)
    powers = link_powers(links, nodes, params)
    for rec in run_instance(cfg, run_id):
        H = build_payoff(enumerate_maximal(build_conflict_graph(powers, rec.beta_db)), rates)
        value, _ = lp_oracle(H)
        assert rec.value_lower <= rec.value_upper <= rec.value_lower * (1 + 1e-12)
        assert abs(rec.value_upper - value) <= 1e-9 * value
        n_comps = H.n_components
        res = milp(np.ones(n_comps), integrality=np.ones(n_comps),
                   constraints=LinearConstraint(H.h > 0, lb=np.array(rates.rates, dtype=float)))
        assert res.status == 0
        optimum = round(res.fun)
        gap = rec.slots - math.ceil(1 / rec.value_upper - 1e-9)
        assert 0 <= rec.slots - optimum <= gap


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(2, 20), n_sessions=st.integers(1, 12), seed=st.integers(0, 10_000),
       run_id=st.integers(0, 10_000), alpha=st.floats(2.0, 6.0))
def test_coloring_never_exceeds_no_reuse_on_random_instances(n_nodes, n_sessions, seed,
                                                             run_id, alpha):
    # Routed instances give random conflict graphs and rates; soft <= coloring
    # is left out because it does not hold on every instance.
    cfg = ExperimentConfig(
        n_nodes=n_nodes, n_sessions=min(n_sessions, n_nodes * (n_nodes - 1)), seed=seed,
        alpha=alpha, beta_min_db=-10.0, beta_max_db=40.0, beta_step_db=10.0,
        modes=("coloring", "none"),
    )
    slots = {(r.beta_db, r.mode): r.slots for r in run_instance(cfg, run_id)}
    for beta in cfg.beta_values():
        assert slots[(beta, "coloring")] <= slots[(beta, "none")]


def test_no_schedule_metric_is_exact_ratio():
    cfg = small_cfg(runs=3, modes=("none",))
    _, records = run_sweep(cfg)
    for rec in records:
        assert rec.slots == rec.total_link_activations
        assert rec.avg_slots_per_packet == rec.total_link_activations / rec.total_packets


def test_sweep_aggregates_mean_of_runs():
    cfg = small_cfg(runs=2, modes=("none",), beta_max_db=0.0)
    table, records = run_sweep(cfg)
    assert len(table) == 1
    expected = (records[0].avg_slots_per_packet + records[1].avg_slots_per_packet) / 2
    assert table[0].mean_avg_slots_per_packet == pytest.approx(expected, rel=1e-12)
    assert table[0].runs == 2


def test_conflict_fixture_sweep_has_one_nan_row_per_mode():
    table, records = run_sweep(ExperimentConfig(runs=3), load_fixture(THREE_LINK_FIXTURE))
    assert len(records) == 3 * 3
    assert [row.mode for row in table] == ["soft", "coloring", "none"]
    assert all(math.isnan(row.beta_db) and row.runs == 3 for row in table)
    # The fixture is the same every run, so the soft gain is 1 - 3/5 each time.
    assert table[0].mean_gain_vs_coloring == pytest.approx(0.4)


def test_conflict_fixture_counts_rates_past_int64_exactly(tmp_path):
    # Fixture rates are unbounded whole numbers; slot counts stay exact Python ints.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n_links": 2, "conflicts": [[0, 1]], "rates": [2**63, 1]}))
    _, records = run_sweep(ExperimentConfig(runs=1, modes=("coloring", "none")),
                           load_fixture(path))
    assert [(rec.mode, rec.slots) for rec in records] == [("coloring", 2**63 + 1),
                                                          ("none", 2**63 + 1)]


@settings(max_examples=100, deadline=None)
@given(n_links=st.integers(1, 9), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000),
       universal=st.sets(st.integers(0, 8)), rates=st.lists(st.integers(1, 30), min_size=9,
                                                             max_size=9))
def test_peeled_links_keep_the_whole_game_exact(n_links, p, seed, universal, rates):
    # Links forced to conflict with every other one are peeled off the game:
    # the record is still the whole game's exact value, its schedule plus
    # the peeled links' own slots is feasible on the whole graph, and no
    # schedule is shorter than the value allows.
    adjacency = random_conflict_graph(np.random.default_rng(seed), n_links, p).adjacency
    for i in universal & set(range(n_links)):
        adjacency[i, :] = adjacency[:, i] = True
    g, r = ConflictGraph(n_links, adjacency), RateVector(tuple(rates[:n_links]))
    schedules = []
    cfg = ExperimentConfig(runs=1, modes=("soft",))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "verify_schedule",
                      lambda s, *args: schedules.append(s) or verify_schedule(s, *args))
        [rec] = run_instance(cfg, 0, Fixture("conflict", graph=g, rates=r))

    value, _ = lp_oracle(build_payoff(enumerate_maximal(g), r))
    for bound in (rec.value_lower, rec.value_upper):
        assert bound == pytest.approx(value, rel=1e-12, abs=0)
    keep = [i for i in range(n_links) if not adjacency[i].all()]
    if keep:
        [schedule] = schedules
        whole = unpeel_schedule(schedule, keep, r)
    else:  # a complete graph: every link fires alone, and there is no game
        assert not schedules and (rec.fp_iterations, rec.converged) == (0, True)
        whole = unpeel_schedule(Schedule((), (), ()), keep, r)
    assert verify_schedule(whole, g, r)
    assert rec.slots == whole.length >= math.ceil(1 / rec.value_upper - 1e-9)


def test_peel_without_universal_links_returns_its_inputs():
    # A path 0-1-2-3: no link conflicts with every other, so nothing is rebuilt.
    g, r = ConflictGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)]), RateVector((2, 1, 3, 1))
    peeled, rest, rest_rates = harness._peel(g, r)
    assert peeled == 0 and rest is g and rest_rates is r


def test_cli_counts_a_complete_graph_with_rates_far_apart(tmp_path):
    # Both links conflict with every link, so both are peeled and nothing
    # is solved or materialised: 10**12 + 1 slots, counted exactly.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"n_links": 2, "conflicts": [[0, 1]], "rates": [10**12, 1]}))
    detail = tmp_path / "detail.csv"
    assert main(["--fixture", str(path), "--runs", "1",
                 "--out", str(tmp_path / "far.csv"), "--detail", str(detail)]) == 0
    with open(detail, newline="") as fh:
        soft = next(row for row in csv.DictReader(fh) if row["mode"] == "soft")
    assert soft["slots"] == "1000000000001"
    assert float(soft["value_upper"]) == pytest.approx(1 / (10**12 + 1), rel=1e-8)
    assert (soft["fp_iterations"], soft["converged"]) == ("0", "true")


HUGE_RATE_FIXTURES = [
    {"n_links": 2, "conflicts": [[0, 1]], "rates": [10**309, 1]},
    {"nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 0.5, "y": 0.0}],
     "sessions": [{"source": 0, "sink": 1, "packets": 10**309}]},
]


@pytest.mark.parametrize("document", HUGE_RATE_FIXTURES)
def test_cli_refuses_soft_mode_on_demand_past_float_range(tmp_path, capsys, document):
    # 1/r is no float for such a rate, so the soft mode is refused before any
    # run; the hard modes count the same fixture in Python ints.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "out.csv"
    assert main(["--fixture", str(path), "--runs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "soft mode" in err and "--modes coloring,none" in err and "run 0" not in err
    assert not out.exists()
    assert main(["--fixture", str(path), "--runs", "1", "--out", str(out),
                 "--modes", "coloring,none"]) == 0


def test_gain_column_only_on_soft_rows():
    cfg = small_cfg(runs=2)
    table, _ = run_sweep(cfg)
    for row in table:
        if row.mode == "soft":
            assert row.mean_gain_vs_coloring is not None
            assert row.mean_gain_vs_coloring < 1.0
        else:
            assert row.mean_gain_vs_coloring is None


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(beta_step_db=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(modes=("soft", "other"))
    with pytest.raises(ValueError):
        ExperimentConfig(modes=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_sessions=0)
    # Non-finite beta settings made beta_values() append forever, and a
    # reversed range made a sweep with no beta at all.
    for bounds in (
        dict(beta_min_db=math.nan), dict(beta_min_db=-math.inf),
        dict(beta_max_db=math.inf), dict(beta_max_db=math.nan),
        dict(beta_step_db=math.inf), dict(beta_step_db=math.nan),
        dict(beta_min_db=10.0, beta_max_db=0.0),
    ):
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig(**bounds)
    # NaN passed a `<= 0` test and failed in numpy at run 0; the path-loss
    # settings were not checked until a run needed them, and never when no
    # mode used them.
    for bad, message in (
        (dict(poisson_mean=math.nan), "poisson_mean"),
        (dict(alpha=math.nan, modes=("none",)), "alpha"),
        (dict(modes="none"), "string 'none'"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**bad)


def test_config_counts_are_whole_numbers():
    # Whole-valued floats and numpy integers are taken as ints; bools,
    # fractions and strings are rejected with the field's name.
    cfg = ExperimentConfig(runs=np.int64(3), n_nodes=4.0, n_sessions=2.0, seed=np.int32(-7))
    counts = (cfg.runs, cfg.n_nodes, cfg.n_sessions, cfg.seed)
    assert counts == (3, 4, 2, -7) and all(type(v) is int for v in counts)
    assert cfg == ExperimentConfig(runs=3, n_nodes=4, n_sessions=2, seed=-7)
    assert type(SolverConfig(max_iterations=np.uint8(9)).max_iterations) is int
    for name in ("runs", "n_nodes", "n_sessions", "seed"):
        for bad in (True, 1.5, "2", math.nan, math.inf, None):
            with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
                ExperimentConfig(**{name: bad})


def test_config_reals_reject_bools_and_strings():
    # True is an int, so it used to run as 1.0.
    for name in ("beta_min_db", "beta_max_db", "beta_step_db", "alpha", "poisson_mean"):
        for bad in (True, False, "1.0", None):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got {bad!r}$"):
                ExperimentConfig(**{name: bad})
    cfg = ExperimentConfig(beta_min_db=np.float64(1.0), beta_max_db=2, beta_step_db=1,
                           alpha=np.int64(3))
    assert cfg.beta_values() == (1.0, 2.0)


def test_modes_canonicalized():
    cfg = ExperimentConfig(modes=("none", "soft"))
    assert cfg.modes == ("soft", "none")


def test_beta_values():
    cfg = ExperimentConfig(beta_min_db=0.0, beta_max_db=30.0, beta_step_db=5.0)
    assert cfg.beta_values() == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert ExperimentConfig(beta_min_db=4.0, beta_max_db=4.0).beta_values() == (4.0,)


def test_write_results_empty_table(tmp_path):
    out = tmp_path / "agg.csv"
    write_results([], out)
    assert out.read_bytes() == (RESULTS_HEADER + "\n").encode()


def test_write_results_one_row(tmp_path):
    cfg = small_cfg(runs=1, modes=("none",), beta_max_db=0.0)
    table, _ = run_sweep(cfg)
    out = tmp_path / "agg.csv"
    write_results(table, out)
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 3 and lines[2] == ""
    assert "\r" not in text


def test_csv_reruns_byte_identical(tmp_path):
    cfg = small_cfg()
    blobs = []
    for tag in ("a", "b"):
        table, records = run_sweep(cfg)
        agg = tmp_path / f"agg_{tag}.csv"
        det = tmp_path / f"det_{tag}.csv"
        write_results(table, agg)
        write_detail(records, det)
        blobs.append((agg.read_bytes(), det.read_bytes()))
    assert blobs[0] == blobs[1]


def test_write_results_unwritable_path_mentions_path(tmp_path):
    with pytest.raises(OSError, match="missing-dir"):
        write_results([], tmp_path / "missing-dir" / "agg.csv")


@pytest.fixture(scope="module")
def real_sweep():
    """A small all-mode sweep's (table, records): every column filled somewhere."""
    return run_sweep(small_cfg())


WRITERS = {"results": (write_results, RESULTS_HEADER), "detail": (write_detail, DETAIL_HEADER)}

# Cell values of every kind the writers may meet, each kind a strategy.
CELLS = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.one_of(st.integers(), st.sampled_from([10**12 + 1, 2**63, 2**64 + 1, -2**63 - 1])),
    "float": st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                                     5e-324])),
    "np.float64": st.floats().map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "np.bool_": st.booleans().map(np.bool_),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
}


def written(writer, rows) -> tuple[bytes, bytes]:
    """The bytes ``writer`` writes for ``rows``, and those of the per-cell reference."""
    write, header = WRITERS[writer]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write(rows, got)
        write_csv_reference(rows, header, want)
        return got.read_bytes(), want.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
def test_writers_match_the_per_cell_reference_on_real_and_empty_rows(writer, real_sweep):
    table, records = real_sweep
    for rows in ([], table if writer == "results" else records):
        got, want = written(writer, rows)
        assert got == want


@settings(max_examples=150, deadline=None)
@given(writer=st.sampled_from(sorted(WRITERS)), data=st.data())
def test_writers_match_the_per_cell_reference_on_any_cell_types(writer, data, real_sweep):
    # Each column keeps its real values, or takes values of one kind (the
    # writers' by-column paths) or of mixed kinds (their per-cell path).
    table, records = real_sweep
    rows = table if writer == "results" else records
    rows = rows[:data.draw(st.integers(0, len(rows)), label="rows")]
    kinds = {name: data.draw(st.sampled_from([None, "mixed", *CELLS]), label=name)
             for name in WRITERS[writer][1].split(",")}
    strategies = {name: st.one_of(*CELLS.values()) if kind == "mixed" else CELLS[kind]
                  for name, kind in kinds.items() if kind is not None}
    rows = [dataclasses.replace(row, **{name: data.draw(strategy)
                                        for name, strategy in strategies.items()})
            for row in rows]
    got, want = written(writer, rows)
    assert got == want


@pytest.mark.parametrize("values", [
    [10**12 + 1, 2**63, 2**64 + 1], [math.nan, math.inf, -math.inf, -0.0, 5e-324],
    [np.float64(0.1), np.float64(math.nan)], [np.float32(0.1)], [np.int64(7)], [np.bool_(True)],
    [True, False], [None, 1.5], [1, 1.0, True, None, "x"],
])
@pytest.mark.parametrize("writer", WRITERS)
def test_writers_match_the_per_cell_reference_on_pinned_columns(writer, values, real_sweep):
    rows = real_sweep[0 if writer == "results" else 1][:len(values)]
    name = WRITERS[writer][1].split(",")[2]  # beta_db in both
    got, want = written(writer, [dataclasses.replace(row, **{name: v})
                                 for row, v in zip(rows, values)])
    assert got == want


def test_records_and_rows_keep_their_fields_and_round_trip(real_sweep):
    assert [(f.name, f.default) for f in dataclasses.fields(ResultRecord)] == [
        ("run_id", dataclasses.MISSING), ("mode", dataclasses.MISSING),
        ("beta_db", dataclasses.MISSING), ("n_nodes", dataclasses.MISSING),
        ("n_sessions", dataclasses.MISSING), ("total_packets", dataclasses.MISSING),
        ("total_link_activations", dataclasses.MISSING), ("slots", dataclasses.MISSING),
        ("avg_slots_per_packet", dataclasses.MISSING), ("value_lower", None),
        ("value_upper", None), ("fp_iterations", None), ("converged", None),
    ]
    assert [(f.name, f.default) for f in dataclasses.fields(SweepRow)] == [
        (name, dataclasses.MISSING) for name in RESULTS_HEADER.split(",")]
    table, records = real_sweep
    for rows in (table, records):
        assert [dataclasses.replace(row) for row in rows] == rows
        assert pickle.loads(pickle.dumps(rows)) == rows
        assert not any(hasattr(row, "__dict__") for row in rows)


# ---------------------------------------------------------------- CLI

def test_cli_generated_run(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    detail = tmp_path / "runs.csv"
    code = main([
        "--nodes", "6", "--sessions", "2", "--runs", "2", "--seed", "9",
        "--beta-min", "0", "--beta-max", "10", "--beta-step", "10",
        "--out", str(out), "--detail", str(detail),
    ])
    assert code == 0
    assert out.read_text().startswith(RESULTS_HEADER)
    assert detail.exists()
    agg_lines = out.read_text().strip().split("\n")
    assert len(agg_lines) == 1 + 2 * 3  # two betas, three modes


def test_cli_fixture_run(tmp_path):
    out = tmp_path / "agg.csv"
    code = main(["--fixture", THREE_LINK_FIXTURE, "--runs", "1", "--out", str(out)])
    assert code == 0
    body = out.read_text().strip().split("\n")[1:]
    soft = next(line for line in body if ",soft," in line)
    # slots 3 over 6 packets: mean 0.5
    assert ",0.5," in soft


def test_cli_exact_solver_matches_fp_on_fixture(tmp_path):
    # HiGHS (lp_oracle) solves the three-link game independently; the soft
    # row gives its value and ceil(1/v) slots.
    detail = tmp_path / "detail.csv"
    assert main(["--fixture", THREE_LINK_FIXTURE, "--runs", "1", "--out", str(tmp_path / "agg.csv"),
                 "--detail", str(detail)]) == 0
    with open(detail, newline="") as fh:
        soft = next(row for row in csv.DictReader(fh) if row["mode"] == "soft")
    fixture = load_fixture(THREE_LINK_FIXTURE)
    value, _ = lp_oracle(build_payoff(enumerate_maximal(fixture.graph), fixture.rates))
    for bound in ("value_lower", "value_upper"):
        assert float(soft[bound]) == pytest.approx(value, rel=1e-8)
    assert int(soft["slots"]) == math.ceil(1 / value - 1e-9)


def test_cli_exact_solver_paper_scale_sweep(tmp_path):
    # Reruns are byte-identical, soft <= coloring <= none in every cell, and
    # every soft record carries HiGHS's value of its whole game.
    args = ["--nodes", "10", "--sessions", "10", "--runs", "4"]
    outputs = []
    for tag in ("first", "second"):
        agg = tmp_path / f"{tag}_agg.csv"
        det = tmp_path / f"{tag}_detail.csv"
        assert main(args + ["--out", str(agg), "--detail", str(det)]) == 0
        outputs.append((agg.read_bytes(), det.read_bytes()))
    assert outputs[0] == outputs[1]
    with open(tmp_path / "first_detail.csv", newline="") as fh:
        rows = {(int(row["run_id"]), float(row["beta_db"]), row["mode"]): row
                for row in csv.DictReader(fh)}
    cases = {(run_id, beta) for run_id, beta, _ in rows}
    assert len(cases) == 4 * 7
    cfg = ExperimentConfig(runs=4)
    params = PropagationParams(alpha=cfg.alpha)
    for run_id in range(cfg.runs):
        nodes, sessions = _generate_instance(cfg, run_id)
        links, rates = accumulate_rates(route_sessions(nodes, sessions, params), sessions)
        powers = link_powers(links, nodes, params)
        for beta in cfg.beta_values():
            soft, hard, none = (int(rows[(run_id, beta, mode)]["slots"])
                                for mode in ("soft", "coloring", "none"))
            assert soft <= hard <= none, (run_id, beta, soft, hard, none)
            g = build_conflict_graph(powers, beta)
            value, _ = lp_oracle(build_payoff(enumerate_maximal(g), rates))
            record = rows[(run_id, beta, "soft")]
            for bound in ("value_lower", "value_upper"):
                assert float(record[bound]) == pytest.approx(value, rel=1e-8)


def test_import_does_not_load_scipy():
    # scipy is a test dependency only: with every scipy import made to fail,
    # softsched imports and runs a default-config soft sweep and a sweep of
    # a conflict fixture.
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import softsched\n"
            "softsched.run_sweep(softsched.ExperimentConfig(runs=2))\n"
            "softsched.run_sweep(softsched.ExperimentConfig(runs=1),"
            " softsched.load_fixture(sys.argv[1]))\n")
    subprocess.run([sys.executable, "-c", code, THREE_LINK_FIXTURE], check=True)


def test_cli_modes_flag(tmp_path):
    out = tmp_path / "agg.csv"
    code = main([
        "--nodes", "6", "--sessions", "2", "--runs", "1", "--seed", "9",
        "--beta-min", "0", "--beta-max", "0", "--beta-step", "5",
        "--modes", "coloring,none", "--out", str(out),
    ])
    assert code == 0
    body = out.read_text().strip().split("\n")[1:]
    assert [line.split(",")[3] for line in body] == ["coloring", "none"]


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_nodes": 6, "n_sessions": 2, "runs": 1, "seed": 4,
        "beta_min_db": 0.0, "beta_max_db": 0.0, "beta_step_db": 5.0,
        "modes": ["none"],
    }))
    out = tmp_path / "agg.csv"
    assert main(["--config", str(cfg_path), "--runs", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # one beta, one mode
    assert lines[1].split(",")[4] == "2"  # CLI --runs overrode the file


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nodes": 6}))
    assert main(["--config", str(cfg_path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("document", [["runs"], 5])
def test_cli_rejects_config_that_is_not_an_object(tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "agg.csv")]) == 1
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "expected a JSON object" in err
    args = build_parser().parse_args(["--config", str(cfg_path)])
    with pytest.raises(ValueError, match="expected a JSON object"):
        _config_from_args(args)


def test_cli_error_exit_nonzero(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    code = main(["--nodes", "3", "--sessions", "10", "--runs", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert not out.exists()


def test_cli_rejects_reversed_beta_range(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    code = main(["--beta-min", "10", "--beta-max", "0", "--runs", "1", "--out", str(out)])
    assert code == 1
    assert "beta_min_db 10.0 exceeds beta_max_db 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["--alpha", "-1", "--modes", "coloring"], None, "alpha must be a positive finite real"),
        (["--poisson-mean", "nan"], None, "poisson_mean must be positive"),
        ([], {"modes": "none"}, "not the string 'none'"),
        ([], {"runs": True}, "runs must be a whole number of at least 1, got True"),
        ([], {"runs": 2.5}, "runs must be a whole number of at least 1, got 2.5"),
        ([], {"n_nodes": 10.5}, "n_nodes must be a whole number of at least 1, got 10.5"),
        ([], {"n_sessions": 2.5}, "n_sessions must be a whole number of at least 1, got 2.5"),
        ([], {"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ([], {"beta_step_db": 0}, "beta_step_db must be positive, got 0"),
        (["--nodes", "3", "--sessions", "10"], None, "n_sessions 10 exceeds"),
        ([], {"alpha": True}, "alpha must be a real number, got True"),
        (["--poisson-mean", "1e-12"], None, "poisson_mean must be positive and >= 1e-3"),
    ],
)
def test_cli_rejects_bad_settings_before_running(tmp_path, capsys, args, config, message):
    out = tmp_path / "agg.csv"
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args = args + ["--config", str(cfg_path)]
    if "runs" not in (config or {}):
        args = args + ["--runs", "1"]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "run 0" not in err
    assert not out.exists()


def test_cli_rejects_bad_fixture(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_links": 2, "conflicts": []}))  # no rates
    assert main(["--fixture", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert "rates" in capsys.readouterr().err


_THREE_NODES = [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 0.5, "y": 0.0},
                {"id": 2, "x": 1.0, "y": 0.0}]


@pytest.mark.parametrize(
    "doc, field",
    [
        # int() used to truncate these, and the run went ahead on the rounded instance.
        ({"n_links": 2, "conflicts": [], "rates": [1.7, 2]}, "rate must be"),
        ({"nodes": _THREE_NODES, "sessions": [{"source": 0, "sink": 2, "packets": 2.5}]},
         "session packets must be"),
        ({"nodes": _THREE_NODES[:2] + [{"id": 2.5, "x": 1.0, "y": 0.0}], "sessions": []},
         "node id must be"),
        ({"nodes": _THREE_NODES, "sessions": [{"source": 0.5, "sink": 2, "packets": 1}]},
         "session source must be"),
        ({"nodes": _THREE_NODES, "sessions": [{"source": 0, "sink": 2.5, "packets": 1}]},
         "session sink must be"),
        # Rates below 1 used to stop the sweep at run 0, with a division by
        # zero when every rate was 0.
        ({"n_links": 3, "conflicts": [[1, 2]], "rates": [3, 0, 2]}, "rate must be"),
        ({"n_links": 2, "conflicts": [], "rates": [0, 0]}, "rate must be"),
        # A missing field used to surface as a bare KeyError naming neither file nor field.
        ({"nodes": [{"id": 0, "y": 0.0}], "sessions": []}, "missing field 'x'"),
        ({"nodes": _THREE_NODES, "sessions": [{"source": 0, "sink": 2}]},
         "missing field 'packets'"),
        # A topology without packets used to load, and then run 0 failed on
        # an empty link list.
        ({"nodes": _THREE_NODES, "sessions": []}, "no session carries a packet"),
        ({"nodes": _THREE_NODES, "sessions": [{"source": 0, "sink": 2, "packets": 0},
                                              {"source": 2, "sink": 1, "packets": 0}]},
         "no session carries a packet"),
    ],
)
def test_cli_rejects_fixture_with_bad_field(tmp_path, capsys, doc, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "agg.csv"
    assert main(["--fixture", str(bad), "--modes", "coloring,none", "--runs", "1",
                 "--beta-max", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and field in err
    assert not out.exists()
    with pytest.raises(ValueError, match=field):
        load_fixture(bad)


def test_csv_headers_are_pinned():
    # The headers come from the SweepRow and ResultRecord fields; renaming a
    # field must not change the public CSV unnoticed.
    assert RESULTS_HEADER == (
        "n_nodes,n_sessions,beta_db,mode,runs,mean_avg_slots_per_packet,stderr,"
        "mean_gain_vs_coloring"
    )
    assert DETAIL_HEADER == (
        "run_id,mode,beta_db,n_nodes,n_sessions,total_packets,total_link_activations,"
        "slots,avg_slots_per_packet,value_lower,value_upper,fp_iterations,converged"
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_every_pair_pick_maps_to_its_ordered_pair(n):
    # With one session per ordered pair every pick occurs; the picks are the
    # pair stream's draws, so each session is the pick's entry in the list.
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    cfg = ExperimentConfig(n_nodes=n, n_sessions=len(pairs), seed=n)
    _, pair_seed, _ = _derive_streams(cfg.seed, 0)
    picks = np.random.default_rng(pair_seed).choice(len(pairs), size=len(pairs), replace=False)
    _, sessions = _generate_instance(cfg, 0)
    assert sorted(picks.tolist()) == list(range(len(pairs)))
    assert [(s.source, s.sink) for s in sessions] == [pairs[p] for p in picks]


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(min_value=2, max_value=30),
    data=st.data(),
    seed=st.integers(min_value=-2**70, max_value=2**70),
    run_id=st.integers(min_value=0, max_value=10_000),
)
def test_generated_instance_equals_the_pair_list_reference(n_nodes, data, seed, run_id):
    n_sessions = data.draw(st.integers(min_value=1, max_value=n_nodes * (n_nodes - 1)))
    cfg = ExperimentConfig(n_nodes=n_nodes, n_sessions=n_sessions, seed=seed)
    nodes, sessions = _generate_instance(cfg, run_id)
    assert (nodes, sessions) == generate_instance_reference(cfg, run_id)
    assert all(type(v) is int for s in sessions for v in (s.source, s.sink, s.packets))
    assert all(type(v) is float for node in nodes for v in node.position)
