"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the logged comparison numbers.
"""

import math
import time

import numpy as np
import pytest

from softsched import (
    Component,
    ConflictParams,
    ExperimentConfig,
    PropagationParams,
    RateVector,
    SolverConfig,
    accumulate_rates,
    build_conflict_graph,
    build_payoff,
    coloring_slots,
    enumerate_maximal,
    extract_schedule,
    fp_solve,
    greedy_color,
    load_fixture,
    lp_oracle,
    no_schedule_slots,
    route_sessions,
    run_instance,
    run_sweep,
    verify_schedule,
)
from softsched.cli import main
from softsched.harness import _generate_instance

from conftest import (
    THREE_LINK_RATES,
    brute_force_components,
    brute_force_maximal,
    random_conflict_graph,
    three_link_graph,
)

THREE_LINK_FIXTURE = "fixtures/three_link.json"


def _ok(line):
    print(f"\n[PASS] {line}", flush=True)


def test_criterion_1_worked_example_exact():
    # lp_oracle imports scipy.optimize on first use; the budget is for solving.
    import scipy.optimize  # noqa: F401
    start = time.perf_counter()
    fixture = load_fixture(THREE_LINK_FIXTURE)
    records = run_instance(ExperimentConfig(runs=1), 0, fixture)
    slots = {rec.mode: rec.slots for rec in records}
    assert slots == {"soft": 3, "coloring": 5, "none": 6}

    g = three_link_graph()
    assert coloring_slots(greedy_color(g, [0, 1, 2]), THREE_LINK_RATES) == 5
    assert coloring_slots(greedy_color(g, [0, 2, 1]), THREE_LINK_RATES) == 4
    assert no_schedule_slots(THREE_LINK_RATES) == 6

    value, y = lp_oracle(build_payoff(enumerate_maximal(g), THREE_LINK_RATES))
    assert abs(value - 1 / 3) <= 1e-9
    assert np.allclose(y, [1 / 3, 2 / 3], atol=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"criterion 1: three-link example gives 3/5/4/6 slots, value 1/3, "
        f"y=(1/3, 2/3) in {elapsed:.3f}s")


def _random_game(rng, max_links=10, max_components=12):
    while True:
        n = int(rng.integers(2, max_links + 1))
        g = random_conflict_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        comps = enumerate_maximal(g)
        if len(comps) <= max_components:
            r = RateVector(tuple(int(v) for v in rng.integers(1, 10, n)))
            return g, comps, r


def test_criterion_2_fp_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240917)
    worst_gap = 0.0
    for _ in range(200):
        _, comps, r = _random_game(rng)
        payoff = build_payoff(comps, r)
        value, _ = lp_oracle(payoff)
        sol = fp_solve(payoff, SolverConfig(delta=1e-3), log_bounds=True)
        assert sol.converged
        for lower, upper in sol.bounds_log:
            assert lower <= value + 1e-12
            assert upper >= value - 1e-12
        midpoint = (sol.value_lower + sol.value_upper) / 2
        worst_gap = max(worst_gap, abs(midpoint - value))
        assert abs(midpoint - value) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(f"criterion 2: 200 instances, |fp midpoint - exact| <= {worst_gap:.2e} "
        f"(tolerance 1e-3), brackets always contained the exact value; {elapsed:.1f}s")


def test_criterion_3_dominated_components_do_not_matter():
    rng = np.random.default_rng(31)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(2, 6))
        g = random_conflict_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        everything = [Component(m) for m in brute_force_components(g)]
        if len(everything) > 16:
            continue
        r = RateVector(tuple(int(v) for v in rng.integers(1, 10, n)))
        maximal = [Component(m) for m in brute_force_maximal(g)]
        v_all, _ = lp_oracle(build_payoff(everything, r))
        v_max, _ = lp_oracle(build_payoff(maximal, r))
        worst = max(worst, abs(v_all - v_max))
        assert abs(v_all - v_max) <= 1e-9
        done += 1
    _ok(f"criterion 3: 100 instances, value(all components) == value(maximal only) "
        f"within {worst:.2e} (tolerance 1e-9)")


def _pipeline_slots(nodes, sessions, beta, solver_cfg):
    params = PropagationParams(alpha=4.0)
    paths = route_sessions(nodes, sessions, params)
    links, rates = accumulate_rates(paths, sessions, nodes)
    g = build_conflict_graph(links, nodes, ConflictParams(beta, params))
    comps = enumerate_maximal(g)
    sol = fp_solve(build_payoff(comps, rates), solver_cfg)
    sched = extract_schedule(comps, rates, sol.y, sol.value_lower)
    check = verify_schedule(sched, g, rates)
    soft = sched.length
    hard = coloring_slots(greedy_color(g, list(range(len(links)))), rates)
    none = no_schedule_slots(rates)
    return soft, hard, none, check


def test_criterion_4_mode_ordering_and_feasibility():
    betas = (0.0, 10.0, 20.0, 30.0)
    cfg = ExperimentConfig(n_nodes=8, n_sessions=4, runs=250, seed=404)
    solver_cfg = SolverConfig(delta=cfg.delta, max_iterations=cfg.max_iterations)
    checked = 0
    for run_id in range(cfg.runs):
        nodes, sessions = _generate_instance(cfg, run_id)
        for beta in betas:
            soft, hard, none, check = _pipeline_slots(nodes, sessions, beta, solver_cfg)
            assert check.ok, f"run {run_id} beta {beta}: {check.violation}"
            assert soft <= hard <= none, f"run {run_id} beta {beta}: {soft}/{hard}/{none}"
            checked += 1
    assert checked == 1000
    _ok("criterion 4: 1000 random (instance, beta) cases, "
        "soft <= coloring <= none with zero violations, all soft schedules verified")


def test_criterion_5_monotone_in_margin():
    betas = (0.0, 10.0, 20.0, 30.0)
    cfg = ExperimentConfig(n_nodes=8, n_sessions=4, runs=100, seed=505,
                           beta_min_db=0.0, beta_max_db=30.0, beta_step_db=10.0)
    params = PropagationParams(alpha=cfg.alpha)
    # conflict edges grow with the margin, instance by instance
    for run_id in range(cfg.runs):
        nodes, sessions = _generate_instance(cfg, run_id)
        paths = route_sessions(nodes, sessions, params)
        links, _ = accumulate_rates(paths, sessions, nodes)
        previous = None
        for beta in betas:
            edges = build_conflict_graph(links, nodes, ConflictParams(beta, params)).edge_set()
            if previous is not None:
                assert previous <= edges
            previous = edges
    # mean slots per mode grow with the margin
    _, records = run_sweep(cfg)
    for mode in ("soft", "coloring", "none"):
        means = []
        for beta in betas:
            sample = [r.slots for r in records if r.mode == mode and r.beta_db == beta]
            means.append(sum(sample) / len(sample))
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), (mode, means)
    _ok("criterion 5: conflict edges form subset chains in beta and "
        "mean slots are nondecreasing for every mode (100 instances)")


def _mean_gain(n_sessions, runs, seed):
    cfg = ExperimentConfig(
        n_nodes=10, n_sessions=n_sessions, alpha=4.0, runs=runs, seed=seed,
        beta_min_db=0.0, beta_max_db=30.0, beta_step_db=10.0,
        modes=("soft", "coloring"),
    )
    table, _ = run_sweep(cfg)
    gains = {row.beta_db: row.mean_gain_vs_coloring for row in table if row.mode == "soft"}
    soft = [row.mean_avg_slots_per_packet for row in table if row.mode == "soft"]
    hard = [row.mean_avg_slots_per_packet for row in table if row.mode == "coloring"]
    return gains, sum(gains.values()) / len(gains), soft, hard


def test_criterion_6_gain_over_coloring():
    start = time.perf_counter()
    runs = 200
    gains10, overall10, soft10, hard10 = _mean_gain(n_sessions=10, runs=runs, seed=606)
    gains5, overall5, _, _ = _mean_gain(n_sessions=5, runs=runs, seed=606)
    print(f"\n  10 sessions, per-beta gain: "
          f"{ {b: round(v, 4) for b, v in gains10.items()} }")
    print(f"   5 sessions, per-beta gain: "
          f"{ {b: round(v, 4) for b, v in gains5.items()} }")
    print(f"  reported comparison band for 10 sessions: 11 to 25 percent fewer slots; "
          f"observed at beta=0: {gains10[0.0]:.1%}")
    assert all(s < h for s, h in zip(soft10, hard10))
    assert overall10 >= 0.05, f"overall mean gain {overall10:.4f} below 5%"
    assert overall10 > overall5, (overall10, overall5)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _ok(f"criterion 6: mean gain {overall10:.1%} >= 5% at 10 sessions, "
        f"exceeding {overall5:.1%} at 5 sessions ({runs} runs, {elapsed:.0f}s)")


def test_criterion_7_byte_identical_reruns(tmp_path):
    args = [
        "--nodes", "7", "--sessions", "3", "--runs", "2", "--seed", "77",
        "--beta-min", "0", "--beta-max", "20", "--beta-step", "10",
    ]
    outputs = []
    for tag in ("first", "second"):
        agg = tmp_path / f"{tag}_agg.csv"
        det = tmp_path / f"{tag}_detail.csv"
        assert main(args + ["--out", str(agg), "--detail", str(det)]) == 0
        outputs.append((agg.read_bytes(), det.read_bytes()))
    assert outputs[0] == outputs[1]
    _ok("criterion 7: identical seeds give byte-identical aggregate and detail CSVs")


def test_criterion_8_maximal_enumeration_vs_brute_force():
    rng = np.random.default_rng(808)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        g = random_conflict_graph(rng, n, float(rng.uniform(0.0, 1.0)))
        got = [c.members for c in enumerate_maximal(g)]
        assert got == brute_force_maximal(g)
    _ok("criterion 8: 50 random graphs up to 12 links, maximal enumeration "
        "matches the 2^L brute force exactly")
