"""Tests of the benchmark's own code: metrics, checks, spans and restoration.

Run with: python3 -m pytest perfbench
"""

import dataclasses
import json
import types

import pytest

import run as bench
from checks import certificate_violation, check_records, quality, schedule_violation, slot_lower_bound
from spans import Span, Tracer, self_times

harness = bench.load_harness()
from softsched import Component  # noqa: E402  (importable once load_harness ran)


def three_link_fixture():
    # Links 1 and 2 conflict; rates (3, 1, 2). Soft needs 3 slots, greedy
    # coloring in index order 5 ({0, 1} for 3 slots, {2} for 2), no reuse 6.
    graph = harness.ConflictGraph.from_pairs(3, [(1, 2)])
    return harness.Fixture("conflict", graph=graph, rates=harness.RateVector((3, 1, 2)))


def tiny_config(seed=5, **kw):
    return harness.ExperimentConfig(n_nodes=6, n_sessions=3, beta_step_db=15.0, runs=2,
                                    seed=seed, **kw)


def test_quality_on_conflict_fixture():
    _, records = harness.run_sweep(tiny_config(), three_link_fixture())
    assert check_records(records, expected=2 * 3, runs=2) == {}
    q = quality(records)
    assert q["soft_slots_per_packet"] == pytest.approx(3 / 6)
    assert q["coloring_slots_per_packet"] == pytest.approx(5 / 6)
    assert q["none_slots_per_packet"] == pytest.approx(1.0)
    assert q["slots_vs_no_reuse"] == q["soft_vs_no_reuse"] == pytest.approx(3 / 6)
    assert q["coloring_vs_no_reuse"] == pytest.approx(5 / 6)
    assert q["gain_vs_coloring"] == pytest.approx(1 - 3 / 5)
    soft = records[0]
    assert q["gap_slots_mean"] == 3 - slot_lower_bound(soft.value_upper)
    assert q["bracket_rel_mean"] == pytest.approx(
        (soft.value_upper - soft.value_lower) / soft.value_upper)


def test_quality_on_tiny_config_matches_hand_computation():
    cfg = tiny_config()
    _, records = harness.run_sweep(cfg)
    assert check_records(records, cfg.runs * len(cfg.beta_values()) * 3, cfg.runs) == {}
    soft = [r for r in records if r.mode == "soft"]
    coloring = {(r.run_id, r.beta_db): r.slots for r in records if r.mode == "coloring"}
    none = {(r.run_id, r.beta_db): r.slots for r in records if r.mode == "none"}
    q = quality(records)
    assert q["soft_slots_per_packet"] == pytest.approx(
        sum(r.avg_slots_per_packet for r in soft) / len(soft))
    assert q["slots_vs_no_reuse"] == pytest.approx(
        sum(r.slots / none[r.run_id, r.beta_db] for r in soft) / len(soft))
    assert q["gain_vs_coloring"] == pytest.approx(
        sum(1 - r.slots / coloring[r.run_id, r.beta_db] for r in soft) / len(soft))

    without_soft = quality([r for r in records if r.mode != "soft"])
    assert without_soft["slots_vs_no_reuse"] == without_soft["coloring_vs_no_reuse"]
    assert "gain_vs_coloring" not in without_soft and "gap_slots_mean" not in without_soft


def test_chunk_quality_is_the_mean_over_all_chunks_cells():
    chunks = [harness.run_sweep(tiny_config(seed=seed))[1] for seed in (5, 6)]
    q = bench.chunk_quality(chunks)
    soft = [r for records in chunks for r in records if r.mode == "soft"]
    assert q["soft_slots_per_packet"] == pytest.approx(
        sum(r.avg_slots_per_packet for r in soft) / len(soft))
    chunks = bench.WORKLOADS["desk"]["chunks"]
    assert [c.seed for c in bench.workload_configs(harness, "desk", 2)] == list(
        range(2 * chunks, 3 * chunks))


def test_end_to_end_reruns_chunk_zero_and_scales_by_calibration(tmp_path, monkeypatch):
    # With no time left after the first round, chunk 0 still runs twice.
    cfgs = [tiny_config(seed=seed) for seed in (5, 6)]
    sweeps = iter([0.4, 0.2, 0.3])  # chunk 5, chunk 6, chunk 5 again
    monkeypatch.setattr(bench, "time_setups", lambda cfg, repeats: [0.1] * repeats)
    monkeypatch.setattr(bench, "calibrate", lambda: bench.CAL_REFERENCE_S * 2)  # host at half speed
    monkeypatch.setattr(bench, "checked_sweep", lambda harness_, cfg, out_dir, outcome:
                        (next(sweeps), harness.run_sweep(cfg)[1]))
    metrics = bench.measure_end_to_end(harness, cfgs, 0.0, tmp_path, bench.Outcome())
    assert next(sweeps, None) is None
    assert metrics["runs_per_s"] == pytest.approx(4 / ((0.35 + 0.2) / 2))
    assert metrics["wall_runs_per_s"] == pytest.approx(4 / (0.3 + 0.2))
    assert metrics["setup_s"] == pytest.approx(0.05)


def test_check_records_flags_each_broken_invariant():
    cfg = tiny_config()
    _, records = harness.run_sweep(cfg)
    expected = len(records)
    idx = {r.mode: i for i, r in enumerate(records) if r.run_id == 1 and r.beta_db == 0.0}

    def broken(mode, **change):
        out = list(records)
        out[idx[mode]] = dataclasses.replace(records[idx[mode]], **change)
        return check_records(out, expected, cfg.runs)

    soft = records[idx["soft"]]
    assert set(broken("soft", value_lower=soft.value_upper * 2)) == {1}
    assert set(broken("soft", slots=slot_lower_bound(soft.value_upper) - 1)) == {1}
    assert set(broken("coloring", slots=records[idx["none"]].slots + 1)) == {1}
    assert set(check_records(records[:-1], expected, cfg.runs)) == {0, 1}


def test_certificate_and_schedule_checks():
    fx = three_link_fixture()
    comps = harness.enumerate_maximal(fx.graph)
    payoff = harness.build_payoff(comps, fx.rates)
    sol = harness.fp_solve(payoff)
    assert certificate_violation(payoff, sol) is None
    assert "value_lower" in certificate_violation(
        payoff, dataclasses.replace(sol, value_lower=sol.value_lower + 0.01))
    assert "value_upper" in certificate_violation(
        payoff, dataclasses.replace(sol, value_upper=sol.value_upper - 0.01))

    schedule = harness.extract_schedule(comps, fx.rates, sol.y, sol.value_lower, fx.graph)
    assert schedule_violation(schedule, fx.graph, fx.rates) is None
    clash = Component((0, 1, 2))
    bad = dataclasses.replace(schedule, slots=(0,) * 3, components=(clash,))
    assert "conflicting" in schedule_violation(bad, fx.graph, fx.rates)
    short = dataclasses.replace(schedule, slots=schedule.slots[:-1])
    assert "requires" in schedule_violation(short, fx.graph, fx.rates)


def test_self_times_subtract_covered_child_time_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),   # overlaps a: [1, 4] is covered once
        Span("c", 9.0, 12.0, 0),  # runs past the parent: only [9, 10] counts
        Span("leaf", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def make_module():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(key, x):
        return mod.inner(x) * 2

    def boom():
        raise KeyError("boom")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    return mod


def test_tracer_records_nested_spans_and_restores_originals():
    mod = make_module()
    originals = dict(vars(mod))
    hooks = {"inner": lambda result, x: "odd" if result % 2 else None}
    tracer = Tracer(mod, ("outer", "inner", "boom"), hooks=hooks,
                    keys={"outer": lambda key, x: key})
    with tracer:
        assert mod.inner is not originals["inner"]
        assert mod.outer("r1", 1) == 4
        assert mod.outer("r2", 2) == 6
        with pytest.raises(KeyError):
            mod.boom()
    assert tracer.restored()
    assert all(getattr(mod, n) is originals[n] for n in ("inner", "outer", "boom"))

    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [
        ("outer", None, "r1"), ("inner", 0, "r1"), ("trace", 0, "r1"),
        ("outer", None, "r2"), ("inner", 3, "r2"), ("trace", 3, "r2"),
        ("boom", None, None),
    ]
    assert tracer.spans[-1].error == "KeyError"
    assert tracer.failures == [("r2", "inner", "odd")]


def test_tracer_restores_after_an_exception_in_its_block():
    mod = make_module()
    original = mod.inner
    tracer = Tracer(mod, ("inner",))
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError
    assert tracer.restored() and mod.inner is original


def test_traced_sweep_returns_the_untraced_records(tmp_path):
    cfg = tiny_config()
    outcome = bench.Outcome()
    plain = bench.checked_sweep(harness, cfg, tmp_path, outcome)
    tracer, stats = bench.make_tracer(harness)
    with tracer:
        traced = bench.checked_sweep(harness, cfg, tmp_path, outcome, tracer)
    assert tracer.restored()
    assert traced[1] == plain[1]
    assert (outcome.attempted, outcome.failed, len(outcome.digests)) == (4, 0, 1)
    assert {s.request for s in tracer.spans if s.name == "fp_solve"} == {(5, 0), (5, 1)}

    layers = bench.layer_metrics(tracer, stats, cfg.runs)
    assert layers["game.fp_iterations_mean"] > 0 and layers["components.J_mean"] >= 1
    assert 0 < layers["game.fp_col_use_ratio"] <= 1
    assert bench.cap_hits(tracer.spans) == 0
    assert all(layers[name] > 0 for name in bench.STAGES)


def test_cap_hit_is_counted_although_it_aborts_the_sweep(tmp_path, monkeypatch):
    original = harness.enumerate_maximal
    monkeypatch.setattr(harness, "enumerate_maximal", lambda g: original(g, cap=0))
    cfg = tiny_config()
    outcome = bench.Outcome()
    metrics = bench.measure_per_layer(harness, [cfg], 0, tmp_path, outcome, tmp_path / "spans.jsonl")
    assert metrics == {"components.cap_hits": 1}
    assert outcome.failed == outcome.attempted == 2 * cfg.runs


def test_peak_rss_restarts_after_a_reset():
    block = bytearray(64 << 20)
    block[::4096] = b"\1" * len(block[::4096])  # touch every page so it becomes resident
    with_block = bench.peak_rss_mb()
    del block
    bench.reset_peak_rss()
    assert bench.peak_rss_mb() < with_block - 32


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_the_package_source(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit):
        bench.load_harness()
