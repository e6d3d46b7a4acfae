import dataclasses
import itertools
import math
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softsched import (
    Component,
    ConflictGraph,
    PayoffMatrix,
    RateVector,
    Schedule,
    SolverConfig,
    build_payoff,
    certified_schedule,
    coloring_slots,
    enumerate_maximal,
    extract_schedule,
    finish_exact,
    fp_solve,
    greedy_color,
    verify_schedule,
)

import softsched.game as game

from conftest import (
    THREE_LINK_RATES,
    assert_same_solution,
    brute_force_components,
    brute_force_maximal,
    certified_schedule_reference,
    counted_schedule,
    extract_schedule_reference,
    finish_exact_reference,
    fp_reference,
    greedy_clique_reference,
    lp_oracle,
    random_conflict_graph,
    three_link_graph,
    verify_schedule_reference,
    vertex_enumeration_value,
)

THREE_LINK_COMPONENTS = [Component((0, 1)), Component((0, 2))]


def three_link_payoff():
    return build_payoff(THREE_LINK_COMPONENTS, THREE_LINK_RATES)


def random_payoff(seed, max_links=10, max_components=12):
    """Random conflict graph -> maximal components -> payoff, sized for the oracle."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, max_links + 1))
        g = random_conflict_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        comps = enumerate_maximal(g)
        if len(comps) <= max_components:
            r = RateVector(tuple(int(v) for v in rng.integers(1, 10, n)))
            return g, comps, r, build_payoff(comps, r)


# ---------------------------------------------------------------- payoff

def test_payoff_three_link():
    H = three_link_payoff()
    assert np.allclose(H.h, [[1 / 3, 1 / 3], [1.0, 0.0], [0.0, 0.5]])
    assert (H.n_links, H.n_components) == (3, 2)


def test_payoff_single_link():
    H = build_payoff([Component((0,))], RateVector((4,)))
    assert H.h.tolist() == [[0.25]]


def test_payoff_rejects_zero_rate():
    with pytest.raises(ValueError):
        build_payoff([Component((0, 1))], RateVector((3, 0)))


def test_payoff_rejects_nan_entry():
    with pytest.raises(ValueError):
        PayoffMatrix(np.array([[np.nan, 1.0], [1.0, 1.0]]))


def test_payoff_rejects_infinite_entry():
    # Fictitious play's first upper bound would be inf, never below the
    # running minimum's start, and inf - inf never closes the bracket.
    with pytest.raises(ValueError):
        PayoffMatrix(np.array([[np.inf, 1.0], [1.0, 1.0]]))


def test_payoff_rejects_uncovered_link():
    with pytest.raises(ValueError, match=r"links \[1\] are not covered"):
        build_payoff([Component((0,))], RateVector((1, 1)))


def test_payoff_rejects_empty_component_list():
    with pytest.raises(ValueError):
        build_payoff([], RateVector((1,)))


@pytest.mark.parametrize("members, link", [((0, 3), 3), ((-1, 0), -1)])
def test_component_link_outside_range_rejected(members, link):
    # extract_schedule used to index past the end, or wrap -1 to the last link.
    comps = [Component((0,)), Component(members)]
    message = re.escape(f"component 1 references link {link} outside 0..2")
    with pytest.raises(ValueError, match=message):
        build_payoff(comps, THREE_LINK_RATES)
    with pytest.raises(ValueError, match=message):
        extract_schedule(comps, THREE_LINK_RATES, np.array([0.5, 0.5]), 1 / 3)
    # Unfired and never needed by a repair: component 0 alone serves every link.
    comps = [Component((0, 1, 2)), Component(members)]
    with pytest.raises(ValueError, match=message):
        extract_schedule(comps, THREE_LINK_RATES, np.array([1.0, 0.0]), 1 / 3)


# ---------------------------------------------------------------- fictitious play

def test_fp_one_by_one():
    sol = fp_solve(PayoffMatrix(np.array([[0.7]])))
    assert sol.value_lower == pytest.approx(0.7, abs=1e-15)
    assert sol.value_upper == pytest.approx(0.7, abs=1e-15)
    assert sol.x.tolist() == [1.0]
    assert sol.y.tolist() == [1.0]
    assert sol.converged


def test_fp_identity_two():
    sol = fp_solve(PayoffMatrix(np.eye(2)), SolverConfig(delta=1e-3))
    assert sol.converged
    assert sol.value_lower <= 0.5 <= sol.value_upper
    assert sol.value_upper - sol.value_lower <= 1e-3
    assert np.allclose(sol.y, [0.5, 0.5], atol=2e-3)


def test_fp_three_link():
    sol = fp_solve(three_link_payoff(), SolverConfig(delta=1e-3))
    assert sol.converged
    assert sol.value_lower <= 1 / 3 <= sol.value_upper
    assert np.allclose(sol.y, [1 / 3, 2 / 3], atol=3e-3)


def test_fp_strategies_certify_bounds():
    H = three_link_payoff()
    sol = fp_solve(H, SolverConfig(delta=1e-4))
    assert np.min(H.h @ sol.y) == pytest.approx(sol.value_lower, abs=1e-12)
    assert np.max(sol.x @ H.h) == pytest.approx(sol.value_upper, abs=1e-12)


def test_fp_identity_two_certifies_exact_value():
    # The upper bound 1/2 of iteration 2 meets the lower bound 1/2 of
    # iteration 3, although the current upper bound there is 2/3.
    sol = fp_solve(PayoffMatrix(np.eye(2)), SolverConfig(delta=1e-9), log_bounds=True)
    assert sol.converged
    assert sol.iterations == 3
    assert sol.bounds_log == [(0.5, 1.0), (1 / 3, 0.5), (0.5, 2 / 3)]
    assert sol.value_lower == sol.value_upper == 0.5
    assert sol.x.tolist() == sol.y.tolist() == [0.5, 0.5]


def test_fp_budget_exhaustion_is_reported_not_raised():
    sol = fp_solve(PayoffMatrix(np.eye(3)), SolverConfig(delta=1e-9, max_iterations=10))
    assert not sol.converged
    assert sol.iterations == 10
    assert sol.value_lower <= 1 / 3 <= sol.value_upper


def test_fp_tie_breaking_lowest_index():
    # All entries equal: every pick ties, so everything lands on index 0.
    sol = fp_solve(PayoffMatrix(np.ones((2, 2))), SolverConfig(delta=1e-12))
    assert sol.x.tolist() == [1.0, 0.0]
    assert sol.y.tolist() == [1.0, 0.0]


def test_fp_state_invariants():
    H = three_link_payoff()
    sol = fp_solve(H, SolverConfig(delta=1e-4))
    st_ = sol.state
    assert st_.row_counts.sum() == st_.k
    assert st_.col_counts.sum() == st_.k + 1
    assert np.allclose(st_.x_acc, H.h @ st_.col_counts)
    assert np.allclose(st_.y_acc, st_.row_counts @ H.h)
    assert np.isclose(sol.x.sum(), 1.0, atol=1e-12)
    assert np.isclose(sol.y.sum(), 1.0, atol=1e-12)


def test_fp_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(delta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("seed", range(25))
def test_fp_bracket_always_contains_exact_value(seed):
    _, _, _, H = random_payoff(seed)
    value, _ = lp_oracle(H)
    sol = fp_solve(H, SolverConfig(delta=1e-3), log_bounds=True)
    assert sol.converged
    for lower, upper in sol.bounds_log:
        assert lower <= value + 1e-12
        assert upper >= value - 1e-12
    assert abs((sol.value_lower + sol.value_upper) / 2 - value) <= 1e-3


def test_fp_gap_running_minimum_hits_delta():
    # The solve stops at the first iteration where the least upper bound so
    # far is within delta of that iteration's lower bound.
    _, _, _, H = random_payoff(123)
    sol = fp_solve(H, SolverConfig(delta=1e-3), log_bounds=True)
    assert sol.value_upper == min(u for _, u in sol.bounds_log)
    assert sol.value_lower == sol.bounds_log[-1][0]
    upper_min = itertools.accumulate((u for _, u in sol.bounds_log), min)
    gaps = [u - l for u, (l, _) in zip(upper_min, sol.bounds_log)]
    assert all(gap > 1e-3 for gap in gaps[:-1])
    assert gaps[-1] <= 1e-3


@st.composite
def tied_payoffs(draw):
    """Small nonnegative matrices of small integers times one scale, so picks tie often."""
    n_links = draw(st.integers(1, 6))
    n_comps = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 1e-3, 7.25]))
    ints = draw(st.lists(st.integers(0, 3), min_size=n_links * n_comps,
                         max_size=n_links * n_comps))
    h = np.array(ints, dtype=float).reshape(n_links, n_comps)
    for i in np.flatnonzero(~h.any(axis=1)):
        h[i, i % n_comps] = 1.0
    for j in np.flatnonzero(~h.any(axis=0)):
        h[j % n_links, j] = 1.0
    return PayoffMatrix(h * scale)


@settings(max_examples=300, deadline=None)
@given(
    H=tied_payoffs(),
    max_iterations=st.integers(1, 50),
    delta=st.sampled_from([1e-9, 1e-3, 0.05, 0.5]),
    log_bounds=st.booleans(),
)
@example(H=PayoffMatrix(np.array([[0.7]])), max_iterations=1, delta=1e-9, log_bounds=True)
@example(H=PayoffMatrix(np.array([[0.5, 0.25, 0.5]])), max_iterations=7, delta=1e-9,
         log_bounds=False)
@example(H=PayoffMatrix(np.array([[0.5], [0.25], [0.5]])), max_iterations=7, delta=1e-9,
         log_bounds=True)
def test_fp_matches_dense_reference(H, max_iterations, delta, log_bounds):
    cfg = SolverConfig(delta=delta, max_iterations=max_iterations)
    assert_same_solution(fp_solve(H, cfg, log_bounds=log_bounds),
                         fp_reference(H, cfg, log_bounds=log_bounds))


@st.composite
def membership_payoffs(draw, columns_per_link=None):
    """Games shaped as build_payoff makes them: row i is link i's 0/1 membership row over r_i.

    With columns_per_link c, J is within 2 of c L, else anything from 1 to 30.
    """
    n_links = draw(st.integers(1, 12))
    if columns_per_link is None:
        n_comps = draw(st.integers(1, 30))
    else:
        n_comps = draw(st.integers(max(1, columns_per_link * n_links - 2),
                                   columns_per_link * n_links + 2))
    cells = draw(st.lists(st.booleans(), min_size=n_links * n_comps,
                          max_size=n_links * n_comps))
    member = np.array(cells).reshape(n_links, n_comps)
    for i in np.flatnonzero(~member.any(axis=1)):
        member[i, i % n_comps] = True
    for j in np.flatnonzero(~member.any(axis=0)):
        member[j % n_links, j] = True
    rates = draw(st.lists(st.integers(1, 20), min_size=n_links, max_size=n_links))
    return PayoffMatrix(member / np.array(rates, dtype=float)[:, None])


# Links 0 and 1 with rates 4 and 1, each alone in its component. Iterations
# 2-4 pick (0, 1), and component 1 misses link 0; at iteration 5 row 0 lifts
# component 0 to 1.0, the untouched leader's value, from the lower index.
RUN_GAME = PayoffMatrix(np.array([[0.25, 0.0], [0.0, 1.0]]))


@settings(max_examples=200, deadline=None)
@given(
    H=membership_payoffs(),
    max_iterations=st.integers(1, 3000),
    delta=st.sampled_from([1e-3, 1e-2]),
    log_bounds=st.booleans(),
)
@example(H=RUN_GAME, max_iterations=3, delta=1e-3, log_bounds=True)
@example(H=RUN_GAME, max_iterations=100, delta=0.25, log_bounds=True)
@example(H=RUN_GAME, max_iterations=5, delta=1e-3, log_bounds=False)
def test_fp_matches_dense_reference_on_membership_games(H, max_iterations, delta, log_bounds):
    cfg = SolverConfig(delta=delta, max_iterations=max_iterations)
    assert_same_solution(fp_solve(H, cfg, log_bounds=log_bounds),
                         fp_reference(H, cfg, log_bounds=log_bounds))


@pytest.mark.parametrize("delta, max_iterations, iterations, converged, last_pick", [
    (1e-3, 3, 3, False, (0, 1)),  # cut by max_iterations inside the run of (0, 1)
    (0.25, 100, 4, True, (0, 1)),  # the gap falls to 0.2 at iteration 4, inside the run
    (1e-3, 5, 5, False, (0, 0)),  # the run ends on a tie from the lower index
])
def test_fp_repeated_pick_run_endings(delta, max_iterations, iterations, converged, last_pick):
    second = fp_reference(RUN_GAME, SolverConfig(delta=delta, max_iterations=2)).state
    assert (second.last_row, second.last_col) == (0, 1) and RUN_GAME.h[0, 1] == 0
    cfg = SolverConfig(delta=delta, max_iterations=max_iterations)
    want = fp_reference(RUN_GAME, cfg, log_bounds=True)
    assert (want.iterations, want.converged) == (iterations, converged)
    assert (want.state.last_row, want.state.last_col) == last_pick
    for log_bounds in (False, True):
        assert_same_solution(fp_solve(RUN_GAME, cfg, log_bounds=log_bounds),
                             fp_reference(RUN_GAME, cfg, log_bounds=log_bounds))


@settings(max_examples=200, deadline=None)
@given(H=tied_payoffs(), max_iterations=st.integers(1, 300),
       delta=st.sampled_from([1e-9, 1e-3, 0.05]))
def test_fp_strategies_certify_bounds_on_random_games(H, max_iterations, delta):
    # x comes from the iteration of the least upper bound, y from the last one.
    sol = fp_solve(H, SolverConfig(delta=delta, max_iterations=max_iterations))
    assert np.max(sol.x @ H.h) == pytest.approx(sol.value_upper, abs=1e-12)
    assert np.min(H.h @ sol.y) == pytest.approx(sol.value_lower, abs=1e-12)


def test_fp_long_rows_match_reference():
    # Rows far longer than tied_payoffs draws: every link is in most of the
    # 90 components, so each pick touches dozens of entries of y_acc.
    rng = np.random.default_rng(5)
    h = rng.integers(0, 3, (4, 90)) + np.eye(4, 90)
    h[0] += 1
    H = PayoffMatrix(h)
    assert np.count_nonzero(H.h, axis=1).min() > 50
    for max_iterations in (1, 30, 1000):
        cfg = SolverConfig(delta=1e-9, max_iterations=max_iterations)
        assert_same_solution(fp_solve(H, cfg, log_bounds=True),
                             fp_reference(H, cfg, log_bounds=True))


@pytest.mark.parametrize("n, touched, want_col", [(2, 0, 0), (3, 2, 1)])
def test_fp_component_tie_keeps_lowest_index(n, touched, want_col):
    # Identity games: after iteration 1 component 1 leads with 1.0. At
    # iteration 2 the picked row lifts only component `touched` to 1.0,
    # exactly the untouched leader's value; the lower index of the two wins.
    H = PayoffMatrix(np.eye(n))
    assert fp_reference(H, SolverConfig(delta=1e-9, max_iterations=1)).state.last_col == 1
    cfg = SolverConfig(delta=1e-9, max_iterations=2)
    want = fp_reference(H, cfg)
    assert want.state.last_row == touched
    assert want.state.y_acc[touched] == want.state.y_acc[1] == 1.0
    assert want.state.last_col == want_col
    assert_same_solution(fp_solve(H, cfg), want)


def test_fp_bottleneck_outside_picked_column():
    # Links 0 and 1 form component 1, link 2 component 0. Iteration 2 makes
    # link 2 the bottleneck; at iteration 3 the component player still picks
    # column 1, which does not contain link 2, so link 2 stays the bottleneck.
    H = PayoffMatrix(np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    cfg = SolverConfig(delta=1e-9, max_iterations=3)
    want = fp_reference(H, cfg, log_bounds=True)
    assert (want.state.last_row, want.state.last_col) == (2, 1)
    assert H.h[2, 1] == 0.0
    assert_same_solution(fp_solve(H, cfg, log_bounds=True), want)
    longer = SolverConfig(delta=1e-9, max_iterations=40)
    assert_same_solution(fp_solve(H, longer, log_bounds=True),
                         fp_reference(H, longer, log_bounds=True))


def test_fp_negative_zero_entries_match_reference():
    # Column 1 is picked first and misses link 1, whose -0.0 the dense
    # update turns into 0.0; the bound from that link then shows the sign.
    H = PayoffMatrix(np.array([[0.0, 1.0, 0.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    for max_iterations in (1, 2, 9):
        cfg = SolverConfig(delta=1e-9, max_iterations=max_iterations)
        assert_same_solution(fp_solve(H, cfg), fp_reference(H, cfg))


# ---------------------------------------------------------------- exact finish

def assert_exact_finish(H, sol):
    """sol is the exact game solution, its strategies certify its bracket, and it is its own."""
    value, _ = lp_oracle(H)
    assert sol.value_lower <= sol.value_upper
    assert sol.value_upper - sol.value_lower <= 1e-12 * sol.value_upper
    assert abs(sol.value_upper - value) <= 1e-9 * value
    for strategy in (sol.x, sol.y):
        assert (strategy >= 0).all() and strategy.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(H.h @ sol.y) == pytest.approx(sol.value_lower, rel=1e-12, abs=0)
    assert np.max(sol.x @ H.h) == pytest.approx(sol.value_upper, rel=1e-12, abs=0)
    assert np.count_nonzero(sol.y) <= H.n_links  # a basic solution
    assert sol.iterations >= 1 and sol.converged is True
    assert (sol.state, sol.bounds_log) == (None, None)


def assert_fp_brackets(H, sol, cfg):
    """FP's certified bracket at cfg holds the exact finish's value, up to its rounding."""
    fp = fp_solve(H, cfg)
    assert fp.value_lower <= sol.value_upper * (1 + 1e-12)
    assert fp.value_upper >= sol.value_lower * (1 - 1e-12)


DEGENERATE_GAMES = [
    PayoffMatrix(np.eye(5)),
    PayoffMatrix(np.ones((4, 6))),
    PayoffMatrix(np.hstack([np.eye(4), np.eye(4), np.ones((4, 1)), np.eye(4)]) / 3),
]


@settings(max_examples=300, deadline=None)
@given(H=st.one_of(tied_payoffs(), membership_payoffs()),
       max_iterations=st.sampled_from([1, 2, 5, 50, 1_000_000]),
       delta=st.sampled_from([1e-3, 1e-2, 0.1]))
@example(H=PayoffMatrix(np.array([[0.7]])), max_iterations=1, delta=1e-2)
@example(H=RUN_GAME, max_iterations=1, delta=1e-2)
@example(H=DEGENERATE_GAMES[0], max_iterations=1, delta=1e-2)
@example(H=DEGENERATE_GAMES[1], max_iterations=1, delta=1e-2)
@example(H=DEGENERATE_GAMES[2], max_iterations=1, delta=1e-2)
@example(H=DEGENERATE_GAMES[2], max_iterations=1_000_000, delta=1e-3)
# min(H @ y) rounds one ulp above max(x @ H) = 5/9, so value_lower takes the cap.
@example(H=PayoffMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]) * (1 / 3)), max_iterations=1_000_000,
         delta=1e-2)
def test_finish_is_exact_and_certified(H, max_iterations, delta):
    # The finish reads the payoff alone; FP's bracket at any budget holds
    # its value.
    sol = finish_exact(H)
    assert_exact_finish(H, sol)
    assert_fp_brackets(H, sol, SolverConfig(delta=delta, max_iterations=max_iterations))


@pytest.mark.parametrize("H", DEGENERATE_GAMES)
@pytest.mark.parametrize("max_iterations", [1, 1_000_000])
def test_finish_degenerate_games(H, max_iterations):
    # Every column ties with another or with a mix of others.
    sol = finish_exact(H)
    assert_exact_finish(H, sol)
    assert_fp_brackets(H, sol, SolverConfig(delta=1e-2, max_iterations=max_iterations))


def test_finish_covers_links_fp_never_reached(monkeypatch):
    # Four copies of the three singletons and one column of all three links:
    # 13 columns, more than 4 per link. One FP iteration plays columns 0 and
    # 1 and leaves link 2 uncovered, but the finish reads none of it: its
    # pool opens with each link's first covering column, 0, 1 and 2, and
    # one pricing round adds the column of all three, the whole optimum.
    H = PayoffMatrix(np.hstack([np.eye(3)] * 4 + [np.ones((3, 1))]))
    fp = fp_solve(H, SolverConfig(max_iterations=1))
    assert np.flatnonzero(fp.y).tolist() == [0, 1] and fp.value_lower == 0.0
    calls = spy_on_simplex(monkeypatch)
    sol = finish_exact(H)
    assert [call.a.shape for call in calls.dual] == [(3, 3)]
    assert [call.columns for call in calls.primal] == [4]
    assert_exact_finish(H, sol)
    assert sol.y.tolist() == [0.0] * 12 + [1.0] and sol.iterations == 2


@pytest.mark.parametrize("rates, length", [((10**12, 1), 10**12),
                                           ((1, 3 * 10**15, 7), 3 * 10**15 + 7)])
def test_finish_rates_far_apart(rates, length):
    # A master row is short only beyond the rounding of its own terms, so a
    # rate-1 link is still covered next to one of rate 10**12 or more. Links
    # 0 and L-1 share a component, link 1 of three is alone: the schedule
    # length is max(r_0, r_last) plus r_1.
    n = len(rates)
    comps = [Component((i,)) for i in range(n)] + [Component((0, n - 1))]
    H = build_payoff(comps, RateVector(rates))
    sol = finish_exact(H)
    assert sol.value_lower <= sol.value_upper == pytest.approx(1 / length, rel=1e-12, abs=0)
    assert sol.value_lower == pytest.approx(1 / length, rel=1e-12, abs=0)
    assert np.min(H.h @ sol.y) >= sol.value_lower and np.max(sol.x @ H.h) == sol.value_upper


def finish_four_triangles(mp):
    """The finish of four disjoint conflict triangles, and its solves.

    81 components, more than 4 per link, so the pool opens with the first
    covering column of each link, 9 distinct ones, and pricing adds 12 in
    each of two rounds before none prices below 0. The first master takes
    the dual simplex; each round's 12 columns join its tableau and primal
    steps finish it. The schedule length is the largest triangle's rate
    sum, 2 + 3 + 4.
    """
    g = ConflictGraph.from_pairs(12, [(3 * t + a, 3 * t + b) for t in range(4)
                                      for a, b in ((0, 1), (0, 2), (1, 2))])
    H = build_payoff(enumerate_maximal(g), RateVector((5, 1, 1, 1, 5, 1, 1, 1, 5, 2, 3, 4)))
    assert H.n_components == 81
    calls = spy_on_simplex(mp)
    sol = finish_exact(H)
    assert [call.a.shape for call in calls.dual] == [(12, 9)]
    assert [call.columns for call in calls.primal] == [21, 33]  # 9 + 12, then + 12
    assert sol.value_upper == pytest.approx(1 / 9, rel=1e-12, abs=0)
    assert_exact_finish(H, sol)
    return H, sol, calls


def test_finish_prices_more_than_one_round(monkeypatch):
    # Each solve has a Dantzig budget of its 12 rows plus its columns, and
    # none spends it.
    H, sol, calls = finish_four_triangles(monkeypatch)
    assert [call.budget for call in calls.dual + calls.primal] == [21, 33, 45]
    assert [call.pivots for call in calls.dual + calls.primal] == [6, 7, 2]
    want = finish_exact_reference(H)
    assert (sol.x.tobytes(), sol.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())
    assert sol.iterations == want.iterations == 3  # the first master and two rounds


def test_finish_prices_more_than_one_round_by_blands_rule(monkeypatch):
    # With no Dantzig budget, Bland's rule pivots every solve, more often.
    monkeypatch.setattr(game, "_DANTZIG_BUDGET", 0)
    H, sol, calls = finish_four_triangles(monkeypatch)
    assert [call.budget for call in calls.dual + calls.primal] == [0, 0, 0]
    assert [call.pivots for call in calls.dual + calls.primal] == [7, 8, 3]
    want = finish_exact_reference(H, budget=0)
    assert (sol.x.tobytes(), sol.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())


def test_finish_opens_a_small_game_whole(monkeypatch):
    # Links with rates 3, 2, 3 and 4 components, at most 4 per link: the
    # only master holds all four.
    member = np.array([[0, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 0]])
    H = PayoffMatrix(member / np.array([[3.0], [2.0], [3.0]]))
    calls = spy_on_simplex(monkeypatch)
    sol = finish_exact(H)
    assert [call.a.shape for call in calls.dual] == [(3, 4)] and not calls.primal
    assert_exact_finish(H, sol)
    assert sol.iterations == 1


@settings(max_examples=150, deadline=None)
@given(H=membership_payoffs(columns_per_link=4))
def test_whole_and_pooled_finishes_agree_either_side_of_4L(H):
    # J lies within 2 of 4L. The finish opens the pool whole up to 4L and
    # from covering columns beyond, and each is that opening forced on every game.
    finishes = {}
    for opening, per_link in (("whole", math.inf), ("pooled", 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(game, "_WHOLE_PER_LINK", per_link)
            calls = spy_on_simplex(mp)
            finishes[opening] = finish_exact(H)
        if opening == "whole":
            assert [call.a.shape for call in calls.dual] == [(H.n_links, H.n_components)]
            assert not calls.primal
    got = finish_exact(H)
    want = finishes["whole" if H.n_components <= 4 * H.n_links else "pooled"]
    for name in ("x", "y"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.value_lower, got.value_upper) == (want.value_lower, want.value_upper)
    value, _ = lp_oracle(H)
    for sol in finishes.values():
        assert_exact_finish(H, sol)
        assert sol.value_upper == pytest.approx(value, rel=1e-12, abs=0)
    assert finishes["whole"].value_upper == pytest.approx(finishes["pooled"].value_upper,
                                                          rel=1e-12, abs=0)


@settings(max_examples=150, deadline=None)
@given(games=st.lists(st.one_of(tied_payoffs(), membership_payoffs(),
                                membership_payoffs(columns_per_link=6)), min_size=1, max_size=6))
@example(games=[DEGENERATE_GAMES[2], RUN_GAME, PayoffMatrix(np.eye(5))])
# Row 4 sits in the crash columns of two clique rows: its right side must take
# their multiples off one after another, as pivoting them one at a time does.
@example(games=[PayoffMatrix(np.array([[1.0]])),
                PayoffMatrix(np.array([[0.0, 0, 2, 0], [0, 1, 0, 0], [0, 0, 2, 0], [3, 0, 0, 0],
                                       [1, 0, 1, 2]]))])
def test_finish_stack_equals_each_game_finished_alone(games):
    # A replication's missed games are finished one after another, as the
    # harness does; each comes out bit for bit as the reference finishes it
    # alone, counters included. Games six columns per link wide price in
    # warm rounds.
    finished = [finish_exact(H) for H in games]
    assert len(finished) == len(games)
    for H, got in zip(games, finished):
        want = finish_exact_reference(H)
        for name in ("x", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.value_lower.hex() == want.value_lower.hex()
        assert got.value_upper.hex() == want.value_upper.hex()
        assert (got.iterations, got.converged, got.state) == (want.iterations, True, None)


@settings(max_examples=100, deadline=None)
@given(games=st.lists(st.one_of(tied_payoffs(), membership_payoffs(),
                                membership_payoffs(columns_per_link=6)), min_size=1, max_size=6),
       per_size=st.sampled_from([0, 0.2]))
@example(games=[DEGENERATE_GAMES[2], RUN_GAME, PayoffMatrix(np.eye(5))], per_size=0)
def test_blands_rule_fallback_stays_exact_and_stacked(games, per_size):
    # With no Dantzig budget, every solve of every game pivots by Bland's
    # rule alone; with a fifth of one, a solve may turn to it part way, and
    # games of one replication after different numbers of pivots. Either way
    # each game, finished in turn, pivots as the reference does alone.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game, "_DANTZIG_BUDGET", per_size)
        finished = [finish_exact(H) for H in games]
    for H, got in zip(games, finished):
        want = finish_exact_reference(H, budget=per_size)
        for name in ("x", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.value_lower.hex(), got.value_upper.hex()) == (want.value_lower.hex(),
                                                                  want.value_upper.hex())
        assert got.value_upper == pytest.approx(lp_oracle(H)[0], rel=1e-12, abs=0)
        assert got.value_upper - got.value_lower <= 1e-12 * got.value_upper
        assert got.iterations == want.iterations
        assert_exact_finish(H, got)


@settings(max_examples=150, deadline=None)
@given(H=st.one_of(tied_payoffs(), membership_payoffs(), membership_payoffs(columns_per_link=6)))
def test_warm_rounds_start_primal_feasible_and_end_optimal(H):
    # Forced to open from covering columns, a game prices in rounds. The
    # columns a round appends leave the last optimal basis primal feasible,
    # and the primal steps leave no reduced cost below -1e-9 and every right
    # side feasible, within rounding of the rates.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game, "_WHOLE_PER_LINK", 0)
        calls = spy_on_simplex(mp)
        sol = finish_exact(H)
    tol = -1e-12 * (1 / H.h.max(axis=1)).max()
    for call in calls.primal:
        n_rows = len(call.start) - 1
        assert (call.start[:n_rows, -1] >= tol).all()
        assert (call.end[:n_rows, -1] >= tol).all()
        assert (call.end[n_rows, :-1] >= -1e-9).all()
    assert sol.value_upper == pytest.approx(lp_oracle(H)[0], rel=1e-12, abs=0)
    assert_exact_finish(H, sol)
    assert sol.iterations == 1 + len(calls.primal)


# ---------------------------------------------------------------- clique start

@dataclasses.dataclass
class DualCall:
    a: np.ndarray
    b: np.ndarray
    rows: list[int]
    cols: np.ndarray
    budget: float
    pivots: int


@dataclasses.dataclass
class PrimalCall:
    start: np.ndarray  # the tableau as the call got it
    end: np.ndarray
    columns: int  # the structurals
    budget: float
    pivots: int


def spy_on_simplex(mp):
    """Record every _dual_simplex and _primal_simplex call, with the pivots each made."""
    calls = types.SimpleNamespace(dual=[], primal=[])
    dual, primal = game._dual_simplex, game._primal_simplex

    def spy_dual(a, b, rows, cols, budget):
        t, basis, pivots = dual(a, b, rows, cols, budget)
        calls.dual.append(DualCall(a, b, rows, cols, budget, pivots))
        return t, basis, pivots

    def spy_primal(t, basis, budget):
        start = t.copy()
        pivots = primal(t, basis, budget)
        calls.primal.append(PrimalCall(start, t.copy(), t.shape[1] - t.shape[0], budget, pivots))
        return pivots

    mp.setattr(game, "_dual_simplex", spy_dual)
    mp.setattr(game, "_primal_simplex", spy_primal)
    return calls


@settings(max_examples=200, deadline=None)
@given(H=st.one_of(tied_payoffs(), membership_payoffs()))
def test_clique_start_is_dual_feasible(H):
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_simplex(mp)
        finish_exact(H)
    scale = H.h.max(axis=1)
    assert len(calls.dual) == 1  # later rounds continue from its optimal tableau
    for call in calls.dual:
        a, clique, cols = call.a, np.array(call.rows), call.cols
        assert call.rows == greedy_clique_reference(H.h / scale[:, None], 1 / scale)
        # No column of the game holds two clique rows.
        assert ((H.h[clique] > 0).sum(axis=0) <= 1).all()
        # Each j_s maximises its row over the pool.
        assert (a[clique, cols] == a[clique].max(axis=1)).all()
        # The clique rows' duals 1 / a[s, j_s] leave no reduced cost below 0.
        reduced = 1.0 - (1.0 / a[clique, cols]) @ a[clique]
        assert (reduced >= -1e-12).all()


@pytest.mark.parametrize("max_iterations", [1, SolverConfig().max_iterations])
def test_clique_start_is_optimal_on_a_path(max_iterations):
    # Conflict path 0-1-2-3 with rates (3, 2, 4, 1); its components are
    # {0, 2}, {0, 3} and {1, 3}. The clique {2, 1} bounds the length below by
    # 4 + 2 = 6, and firing {0, 2} four times and {1, 3} twice meets it, so
    # the crash basis is already optimal and the dual simplex never pivots.
    # FP's bracket holds 1/6 after one iteration and at full budget.
    g = ConflictGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    H = build_payoff(enumerate_maximal(g), RateVector((3, 2, 4, 1)))
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_simplex(mp)
        sol = finish_exact(H)
    assert sol.value_lower == sol.value_upper == 1 / 6 == lp_oracle(H)[0]
    assert [call.pivots for call in calls.dual] == [0] and not calls.primal
    assert_exact_finish(H, sol)
    assert_fp_brackets(H, sol, SolverConfig(max_iterations=max_iterations))


# ---------------------------------------------------------------- exact oracle

def test_oracle_three_link():
    value, y = lp_oracle(three_link_payoff())
    assert value == pytest.approx(1 / 3, abs=1e-12)
    assert np.allclose(y, [1 / 3, 2 / 3], atol=1e-12)


def test_oracle_one_by_one():
    value, y = lp_oracle(PayoffMatrix(np.array([[0.7]])))
    assert value == pytest.approx(0.7, abs=1e-15)
    assert y.tolist() == [1.0]


def test_oracle_identity_two():
    value, y = lp_oracle(PayoffMatrix(np.eye(2)))
    assert value == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(y, [0.5, 0.5], atol=1e-12)


def test_oracle_flat_game_tie():
    # Flat game: every strategy is optimal, and any probability vector will do.
    value, y = lp_oracle(PayoffMatrix(np.ones((2, 2))))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert (y >= 0).all() and y.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.ones((2, 2)) @ y) == pytest.approx(1.0, abs=1e-12)


def test_oracle_rates_far_apart():
    # Two conflicting links with rates 10**12 and 1: HiGHS sees the 0/1
    # membership with the rates on the right, not entries of 1e-12.
    comps = enumerate_maximal(ConflictGraph.from_pairs(2, [(0, 1)]))
    value, y = lp_oracle(build_payoff(comps, RateVector((10**12, 1))))
    assert value == pytest.approx(1 / (10**12 + 1), rel=1e-12, abs=0)
    assert y == pytest.approx([10**12 / (10**12 + 1), 1 / (10**12 + 1)], rel=1e-12)


def test_oracle_has_no_size_limit():
    for n in (13, 500):
        value, _ = lp_oracle(PayoffMatrix(np.eye(n)))
        assert value == pytest.approx(1 / n, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(H=tied_payoffs())
@example(H=PayoffMatrix(np.array([[0.7]])))
@example(H=PayoffMatrix(np.array([[0.5, 0.25, 0.5]])))
@example(H=PayoffMatrix(np.array([[0.5], [0.25], [0.5]])))
@example(H=PayoffMatrix(np.ones((6, 8))))
@example(H=PayoffMatrix(np.eye(6) * 1e-3))  # basis determinant 1e-18
@example(H=PayoffMatrix(np.array([  # HiGHS returns one zero entry of y as -1.2e-15
    [0, 2, 3, 0, 0, 3], [0, 2, 0, 1, 0, 1], [0, 1, 1, 1, 3, 3],
    [0, 2, 0, 0, 0, 1], [1, 1, 1, 1, 0, 1], [0, 2, 3, 0, 0, 1]], dtype=float)))
def test_oracle_matches_vertex_enumeration(H):
    value, y = lp_oracle(H)
    assert abs(value - vertex_enumeration_value(H)) <= 1e-12
    assert (y >= 0).all() and y.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(np.min(H.h @ y) - value) <= 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_oracle_matches_simplex_free_grid_bound(seed):
    # The oracle value must dominate min(H @ y) for every grid strategy and
    # be attained by its own reported y.
    _, _, _, H = random_payoff(seed, max_links=6, max_components=5)
    value, y = lp_oracle(H)
    assert np.min(H.h @ y) == pytest.approx(value, abs=1e-9)
    j = H.n_components
    steps = 6
    for combo in itertools.product(range(steps + 1), repeat=j - 1):
        if sum(combo) > steps:
            continue
        probe = np.array(list(combo) + [steps - sum(combo)]) / steps
        assert np.min(H.h @ probe) <= value + 1e-9


@pytest.mark.parametrize("seed", [0, 7, 21, 42])
def test_oracle_dominance_invariance(seed):
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, 6))
        g = random_conflict_graph(rng, n, float(rng.uniform(0.3, 0.9)))
        everything = [Component(m) for m in brute_force_components(g)]
        if len(everything) <= 20:
            break
    r = RateVector(tuple(int(v) for v in rng.integers(1, 10, n)))
    maximal = [Component(m) for m in brute_force_maximal(g)]
    v_all, _ = lp_oracle(build_payoff(everything, r))
    v_max, _ = lp_oracle(build_payoff(maximal, r))
    assert abs(v_all - v_max) <= 1e-9


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_oracle_scale_invariance(seed):
    g, comps, r, H = random_payoff(seed, max_links=6, max_components=8)
    value, y = lp_oracle(H)
    for c in (2, 5):
        scaled = RateVector(tuple(c * v for v in r.rates))
        v_scaled, y_scaled = lp_oracle(build_payoff(comps, scaled))
        assert 1.0 / v_scaled == pytest.approx(c / value, rel=1e-9)
        assert np.allclose(y_scaled, y, atol=1e-9)


# ---------------------------------------------------------------- schedules

def test_extract_three_link_schedule():
    g = three_link_graph()
    sched = extract_schedule(
        THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([1 / 3, 2 / 3]), 1 / 3
    )
    assert sched.slots == (0, 1, 1)
    assert sched.length == 3
    assert sched.served == (3, 1, 2)
    assert verify_schedule(sched, g, THREE_LINK_RATES)


def test_extract_single_component_forced_length():
    comps = [Component((0,)), Component((1,))]  # links 0 and 1 conflict
    r = RateVector((7, 3))
    value, y = lp_oracle(build_payoff(comps, r))
    sched = extract_schedule(comps, r, y, value)
    assert sched.length == 10
    one_comp = [Component((0, 1))]  # no conflict
    r2 = RateVector((7, 2))
    sched2 = extract_schedule(one_comp, r2, np.array([1.0]), 1 / 7)
    assert sched2.slots == (0,) * 7


def test_extract_repairs_skewed_strategy():
    # All mass on the component that misses link 2; repair must cover it.
    g = three_link_graph()
    sched = extract_schedule(
        THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([1.0, 0.0]), 1 / 3
    )
    assert verify_schedule(sched, g, THREE_LINK_RATES)


def test_extract_rejects_nonpositive_value():
    with pytest.raises(ValueError):
        extract_schedule(
            THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([0.5, 0.5]), 0.0
        )


@pytest.mark.parametrize("seed", range(20))
def test_extract_random_instances_verify(seed):
    g, comps, r, H = random_payoff(seed)
    sol = fp_solve(H)
    sched = extract_schedule(comps, r, sol.y, sol.value_lower)
    check = verify_schedule(sched, g, r)
    assert check.ok, check.violation
    # never shorter than the fractional optimum allows
    value, _ = lp_oracle(H)
    assert sched.length >= math.ceil(1.0 / value - 1e-9)


@st.composite
def rounding_inputs(draw):
    """Components, rates, a mixed strategy and a value bound for extract_schedule."""
    n_links = draw(st.integers(1, 6))
    members = st.lists(st.integers(0, n_links - 1), min_size=1, max_size=n_links, unique=True)
    comps = [Component(tuple(sorted(m)))
             for m in draw(st.lists(members, min_size=1, max_size=6))]
    r = RateVector(tuple(draw(st.lists(st.integers(0, 6), min_size=n_links,
                                       max_size=n_links))))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(comps), max_size=len(comps))
                   .filter(any))
    return comps, r, np.array(weights) / sum(weights), 1 / draw(st.floats(1.0, 40.0))


def test_extract_builds_the_membership_only_to_repair(monkeypatch):
    built = []
    membership = game._membership
    monkeypatch.setattr(game, "_membership",
                        lambda comps, n_links: built.append(n_links) or membership(comps, n_links))
    # The rounding fires component 0 once and component 1 twice, serving every rate.
    extract_schedule(THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([1 / 3, 2 / 3]), 1 / 3)
    assert built == []
    # All mass on component 0 leaves link 2 short.
    extract_schedule(THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([1.0, 0.0]), 1 / 3)
    assert built == [3]


@settings(max_examples=300, deadline=None)
@given(inputs=rounding_inputs())
# The rounding serves every rate exactly: no repair, and the trim drops nothing.
@example(inputs=(THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([1 / 3, 2 / 3]), 1 / 3))
# No repair; the trim keeps one of the four slots of component 1, which links 0 and 2 need once.
@example(inputs=(THREE_LINK_COMPONENTS, RateVector((1, 0, 1)), np.array([0.0, 1.0]), 1 / 4))
# All mass on component 0, which misses link 2: repair adds component 1 twice.
@example(inputs=(THREE_LINK_COMPONENTS, THREE_LINK_RATES, np.array([1.0, 0.0]), 1 / 3))
# One slot each leaves link 0 short; both components cover it, and component 0 must win.
@example(inputs=(THREE_LINK_COMPONENTS, RateVector((3, 1, 1)), np.array([0.5, 0.5]), 0.5))
def test_extract_matches_reference(inputs):
    comps, r, y, value_lower = inputs
    try:
        want = extract_schedule_reference(comps, r, y, value_lower)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            extract_schedule(comps, r, y, value_lower)
        return
    assert extract_schedule(comps, r, y, value_lower) == want


def test_verify_flags_conflicting_slot():
    g = three_link_graph()
    bad = Schedule(slots=(0,), served=(1, 1, 1), components=(Component((1, 2)),))
    check = verify_schedule(bad, g, RateVector((0, 1, 1)))
    assert not check
    assert "slot 0" in check.violation and "1" in check.violation and "2" in check.violation


def test_verify_flags_underserved_link():
    g = three_link_graph()
    sched = Schedule(slots=(0,), served=(1, 1, 0), components=(Component((0, 1)),))
    check = verify_schedule(sched, g, THREE_LINK_RATES)
    assert not check
    assert "link 0" in check.violation


@pytest.mark.parametrize("slots, violation", [
    ((0, -1), "slot 1 names component -1, outside 0..1"),
    ((1, 0, 2, 2), "slot 2 names component 2, outside 0..1"),
])
def test_verify_flags_slot_outside_component_list(slots, violation):
    sched = Schedule(slots=slots, served=(0, 0, 0), components=tuple(THREE_LINK_COMPONENTS))
    check = verify_schedule(sched, three_link_graph(), RateVector((0, 0, 0)))
    assert not check
    assert check.violation == violation


def test_verify_reports_first_conflicting_slot_in_any_order():
    # Component 2 conflicts; it first fills slot 2 and again slot 4.
    g = three_link_graph()
    comps = (Component((0, 1)), Component((0,)), Component((0, 1, 2)))
    sched = Schedule(slots=(1, 0, 2, 1, 2), served=(5, 3, 2), components=comps)
    check = verify_schedule(sched, g, THREE_LINK_RATES)
    assert check == verify_schedule_reference(sched, g, THREE_LINK_RATES)
    assert check.violation == "slot 2 activates conflicting links 1 and 2"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_matches_reference(data):
    n_links = data.draw(st.integers(1, 6))
    g = random_conflict_graph(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                              n_links, data.draw(st.sampled_from([0.0, 0.2, 0.6])))
    members = st.lists(st.integers(0, n_links - 1), min_size=1, max_size=n_links, unique=True)
    comps = tuple(Component(tuple(sorted(m)))
                  for m in data.draw(st.lists(members, min_size=1, max_size=5)))
    slots = tuple(data.draw(st.lists(st.integers(-1, len(comps)), max_size=12)))
    r = RateVector(tuple(data.draw(st.lists(st.integers(0, 4), min_size=n_links,
                                            max_size=n_links))))
    sched = Schedule(slots=slots, served=(0,) * n_links, components=comps)
    assert verify_schedule(sched, g, r) == verify_schedule_reference(sched, g, r)


def test_theorem_reciprocal_schedule_length():
    # At the optimum the slowest link pins the fractional length at 1/value.
    for seed in (3, 11):
        _, _, r, H = random_payoff(seed, max_links=6, max_components=6)
        value, y = lp_oracle(H)
        fractions = H.h @ y
        slowest = fractions.min()
        assert slowest == pytest.approx(value, abs=1e-9)
        assert 1.0 / slowest == pytest.approx(1.0 / value, rel=1e-9)


def test_certified_schedule_of_the_three_link_instance():
    # First fit takes links 1 and 2 (one conflict each) before link 0: link 1
    # holds slot 0, link 2 slots 1-2 and link 0 all three. Links 1 and 2
    # conflict and weigh 3, the slots used, so the value 1/3 is proven.
    assert certified_schedule(three_link_graph(), THREE_LINK_RATES) == (
        [Component((0, 1)), Component((0, 2))], [1, 2])


def test_certified_schedule_misses_the_five_cycle():
    # Unit rates on a 5-cycle: first fit needs 3 slots, every clique is an
    # edge of weight 2, and the value is 2/5, so no first-fit length is
    # proven and the game goes to the LP finish.
    g = ConflictGraph.from_pairs(5, [(i, (i + 1) % 5) for i in range(5)])
    r = RateVector((1,) * 5)
    assert certified_schedule(g, r) is None
    assert lp_oracle(build_payoff(enumerate_maximal(g), r))[0] == pytest.approx(0.4, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(n_links=st.integers(1, 8), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000),
       rates=st.lists(st.integers(1, 30), min_size=8, max_size=8))
def test_certified_schedule_length_is_the_value_and_the_integer_optimum(n_links, p, seed, rates):
    # Whenever first fit's T slots come with a clique of weight T, T is
    # both 1/v (HiGHS) and the integer optimum over every maximal component
    # (milp), the schedule is feasible and no hard coloring is shorter. The
    # slot sets and counts are the exhaustive reference's, and extraction
    # from y = counts / T at value 1/T gives back that very schedule.
    from scipy.optimize import LinearConstraint, milp

    g = random_conflict_graph(np.random.default_rng(seed), n_links, p)
    r = RateVector(tuple(rates[:n_links]))
    certified = certified_schedule(g, r)
    assert certified == certified_schedule_reference(g, r)
    if certified is None:
        return
    comps, counts = certified
    n_slots = sum(counts)
    H = build_payoff(enumerate_maximal(g), r)
    value, _ = lp_oracle(H)
    assert n_slots == pytest.approx(1 / value, rel=1e-12, abs=0)
    res = milp(np.ones(H.n_components), integrality=np.ones(H.n_components),
               constraints=LinearConstraint(H.h > 0, lb=np.array(r.rates, dtype=float)))
    assert res.status == 0 and round(res.fun) == n_slots
    schedule = counted_schedule(comps, counts, r)
    assert verify_schedule_reference(schedule, g, r)
    assert extract_schedule(comps, r, np.array(counts) / n_slots, 1 / n_slots) == schedule
    assert coloring_slots(greedy_color(g, list(range(n_links))).colors, r) >= n_slots
