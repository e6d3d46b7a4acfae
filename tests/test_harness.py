import csv
import dataclasses
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsched import (
    ConflictParams,
    ExperimentConfig,
    PropagationParams,
    SolverConfig,
    accumulate_rates,
    build_conflict_graph,
    build_payoff,
    enumerate_maximal,
    fp_solve,
    load_fixture,
    lp_oracle,
    route_sessions,
    run_instance,
    run_sweep,
    write_detail,
    write_results,
)
from softsched.cli import main
from softsched.harness import RESULTS_HEADER, _generate_instance

THREE_LINK_FIXTURE = "fixtures/three_link.json"


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


def test_topology_fixture_keeps_beta_sweep(tmp_path):
    doc = {
        "nodes": [
            {"id": 0, "x": 0.0, "y": 0.0},
            {"id": 1, "x": 0.5, "y": 0.0},
            {"id": 2, "x": 1.0, "y": 0.0},
        ],
        "sessions": [{"source": 0, "sink": 2, "packets": 2}],
    }
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    fixture = load_fixture(path)
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


def test_run_instance_deterministic():
    cfg = small_cfg()
    assert run_instance(cfg, 1) == run_instance(cfg, 1)
    # different run ids draw different instances
    assert run_instance(cfg, 0) != run_instance(cfg, 1)


def test_too_many_sessions_rejected():
    cfg = small_cfg(n_nodes=3, n_sessions=7)  # only 6 ordered pairs
    with pytest.raises(ValueError):
        run_instance(cfg, 0)


def test_mode_ordering_invariant_small():
    cfg = small_cfg(runs=4)
    _, records = run_sweep(cfg)
    keyed = {(r.run_id, r.beta_db, r.mode): r.slots for r in records}
    for (run_id, beta, mode), slots in keyed.items():
        if mode == "soft":
            assert slots <= keyed[(run_id, beta, "coloring")] <= keyed[(run_id, beta, "none")]


@settings(max_examples=40, deadline=None)
@given(run_id=st.integers(0, 10_000), beta=st.integers(0, 30))
def test_fp_brackets_contain_exact_value_on_routed_instances(run_id, beta):
    # Paper-default instances (10 nodes, 10 sessions), up to about a hundred
    # components: far past what an exponential-time exact solver reaches.
    cfg = ExperimentConfig()
    params = PropagationParams(alpha=cfg.alpha)
    nodes, sessions = _generate_instance(cfg, run_id)
    links, rates = accumulate_rates(route_sessions(nodes, sessions, params), sessions, nodes)
    g = build_conflict_graph(links, nodes, ConflictParams(float(beta), params))
    H = build_payoff(enumerate_maximal(g), rates)
    value, _ = lp_oracle(H)
    sol = fp_solve(H, SolverConfig(delta=cfg.delta), log_bounds=True)
    for lower, upper in sol.bounds_log:
        assert lower <= value + 1e-12
        assert upper >= value - 1e-12


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
        ExperimentConfig(solver="simplex")
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
    outputs = {}
    for solver in ("fp", "exact"):
        out = tmp_path / f"{solver}.csv"
        assert main(["--fixture", THREE_LINK_FIXTURE, "--runs", "1",
                     "--solver", solver, "--out", str(out)]) == 0
        outputs[solver] = out.read_text()
    soft_fp = [l for l in outputs["fp"].split("\n") if ",soft," in l]
    soft_exact = [l for l in outputs["exact"].split("\n") if ",soft," in l]
    assert soft_fp == soft_exact


def test_cli_exact_solver_paper_scale_sweep(tmp_path):
    args = ["--nodes", "10", "--sessions", "10", "--runs", "4", "--solver", "exact"]
    outputs = []
    for tag in ("first", "second"):
        agg = tmp_path / f"{tag}_agg.csv"
        det = tmp_path / f"{tag}_detail.csv"
        assert main(args + ["--out", str(agg), "--detail", str(det)]) == 0
        outputs.append((agg.read_bytes(), det.read_bytes()))
    assert outputs[0] == outputs[1]
    with open(tmp_path / "first_detail.csv", newline="") as fh:
        slots = {(row["run_id"], row["beta_db"], row["mode"]): int(row["slots"])
                 for row in csv.DictReader(fh)}
    cases = {(run_id, beta) for run_id, beta, _ in slots}
    assert len(cases) == 4 * 7
    for run_id, beta in cases:
        soft, hard, none = (slots[(run_id, beta, mode)] for mode in ("soft", "coloring", "none"))
        assert soft <= hard <= none, (run_id, beta, soft, hard, none)


def test_import_does_not_load_scipy():
    # scipy is loaded only by the exact solver; fictitious-play runs never pay for it.
    code = "import softsched, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


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


def test_cli_rejects_bad_fixture(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_links": 2, "conflicts": []}))  # no rates
    assert main(["--fixture", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert "rates" in capsys.readouterr().err
