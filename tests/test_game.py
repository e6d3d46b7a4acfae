import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softsched import (
    Component,
    PayoffMatrix,
    RateVector,
    Schedule,
    SolverConfig,
    build_payoff,
    enumerate_maximal,
    extract_schedule,
    fp_solve,
    lp_oracle,
    supported_rates,
    verify_schedule,
)

from conftest import (
    THREE_LINK_RATES,
    brute_force_components,
    brute_force_maximal,
    extract_schedule_reference,
    fp_reference,
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
    with pytest.raises(ValueError):
        build_payoff([Component((0,))], RateVector((1, 1)))


def test_payoff_rejects_empty_component_list():
    with pytest.raises(ValueError):
        build_payoff([], RateVector((1,)))


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
    # column 1, which does not contain link 2, so the argmin is not recomputed.
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


# ---------------------------------------------------------------- derived quantities

def test_supported_rates_three_link():
    H = three_link_payoff()
    assert np.allclose(supported_rates(H, np.array([1 / 3, 2 / 3])), [1 / 3, 1 / 3, 1 / 3])


def test_supported_rates_unit_mass_selects_column():
    H = three_link_payoff()
    assert np.allclose(supported_rates(H, np.array([0.0, 1.0])), H.h[:, 1])


def test_supported_rates_dimension_mismatch():
    with pytest.raises(ValueError):
        supported_rates(three_link_payoff(), np.array([1.0]))


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extract_matches_reference(data):
    n_links = data.draw(st.integers(1, 6))
    members = st.lists(st.integers(0, n_links - 1), min_size=1, max_size=n_links, unique=True)
    comps = [Component(tuple(sorted(m)))
             for m in data.draw(st.lists(members, min_size=1, max_size=6))]
    r = RateVector(tuple(data.draw(st.lists(st.integers(0, 6), min_size=n_links,
                                            max_size=n_links))))
    weights = data.draw(st.lists(st.integers(0, 5), min_size=len(comps), max_size=len(comps))
                        .filter(any))
    y = np.array(weights) / sum(weights)
    value_lower = 1 / data.draw(st.floats(1.0, 40.0))
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
    slots = tuple(data.draw(st.lists(st.integers(0, len(comps) - 1), max_size=12)))
    r = RateVector(tuple(data.draw(st.lists(st.integers(0, 4), min_size=n_links,
                                            max_size=n_links))))
    sched = Schedule(slots=slots, served=(0,) * n_links, components=comps)
    assert verify_schedule(sched, g, r) == verify_schedule_reference(sched, g, r)


def test_theorem_reciprocal_schedule_length():
    # At the optimum the slowest link pins the fractional length at 1/value.
    for seed in (3, 11):
        _, _, r, H = random_payoff(seed, max_links=6, max_components=6)
        value, y = lp_oracle(H)
        fractions = supported_rates(H, y)
        slowest = fractions.min()
        assert slowest == pytest.approx(value, abs=1e-9)
        assert 1.0 / slowest == pytest.approx(1.0 / value, rel=1e-9)
