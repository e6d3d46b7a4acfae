#!/usr/bin/env python3
"""Sweep benchmark for softsched: throughput, set-up, memory and schedule quality.

    python3 perfbench/run.py                      # every workload, both phases
    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Each workload is a fixed set of short Monte-Carlo sweeps (chunks) whose
instances derive from --seed. The measured path is the one the softsched CLI
takes: run_sweep, then write_results and write_detail into a scratch
directory. Each workload and phase measures for about --seconds (default:
run_seconds in BENCHMARK.json). Every sweep is checked, and all sweeps of a
chunk must give byte-identical CSVs.

--trace 0 reports the end-to-end metrics: every chunk is swept once, then
chunks repeat while time remains. Each sweep's wall time is scaled by a
calibration kernel timed around it, so slow phases of a shared host cancel.
--trace 1 alternates untraced and traced sweeps of the first chunks and
reports per-layer metrics: the traced sweep wraps the
names softsched.harness looks up (no source change), records one span per
call keyed by replication, checks each fictitious-play certificate and each
schedule independently, and writes its spans to perfbench/out/ at the end.
Without --trace both sets are reported; --workload all (the default) runs
every workload in this one process. A benchmark runner calls the second
form once per workload and phase, with --seconds set to run_seconds. The
last line of output is a JSON object {"correct", "attempted", "failed",
"metrics"}; the exit status is 1 when any check failed. The process starts
no threads and no worker pool; set-up time is measured in short-lived child
processes, one at a time.
"""

from __future__ import annotations

import os

# Keep numpy's BLAS from starting a thread pool: the sweep is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import certificate_violation, check_records, quality, schedule_violation  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

COMMON = dict(alpha=4.0, poisson_mean=5.0, beta_min_db=0.0, beta_max_db=30.0)
# A workload is `chunks` sweeps of `runs` replications; chunk k of seed s has
# root seed s * chunks + k. A chunk takes about a second; many chunks keep the
# instance mix of one seed close to that of another. The traced phase sweeps
# the first `traced_chunks` only. Why each workload exists is recorded in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "desk": dict(chunks=30, traced_chunks=12, n_nodes=10, n_sessions=10, beta_step_db=5.0,
                 runs=10),
    "baseline": dict(chunks=24, traced_chunks=8, n_nodes=20, n_sessions=10, beta_step_db=1.0,
                     runs=25, modes=("coloring", "none")),
}

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "slots_vs_no_reuse": "share",
    "coloring_vs_no_reuse": "share",
}
# Stage times are seconds per replication, summed over the traced names.
STAGES = {
    "topology.generate_s": ("generate_nodes",),
    "topology.route_s": ("route_sessions",),
    "topology.rates_s": ("accumulate_rates",),
    "conflict.build_s": ("build_conflict_graph",),
    "components.enumerate_s": ("enumerate_maximal",),
    "game.payoff_s": ("build_payoff",),
    "game.fp_s": ("fp_solve",),
    "game.extract_s": ("extract_schedule",),
    "game.verify_s": ("verify_schedule",),
    "coloring.greedy_s": ("greedy_color", "coloring_slots"),
}
PER_LAYER = {
    **{name: "s" for name in STAGES},
    "harness.self_s": "s",
    "harness.write_s": "s",
    "topology.links_mean": "count",
    "conflict.density_mean": "share",
    "components.J_mean": "count",
    "components.J_max": "count",
    "components.cap_hits": "count",
    "game.fp_iterations_mean": "count",
    "game.fp_iterations_max": "count",
    "game.fp_unconverged": "count",
    "game.fp_cols_used_mean": "count",
    "game.fp_col_use_ratio": "share",
    "game.gap_slots_mean": "slot",
    "game.bracket_rel_mean": "share",
    "coloring.classes_mean": "count",
    "trace.overhead_share": "share",
}
# Calibration time that counts as one second of sweep time: the calibration
# kernel's median on a 2-core x86 VM (Python 3.11, numpy 2.4).
CAL_REFERENCE_S = 0.06
SETUP_EVERY = 2  # one set-up probe per this many untraced sweeps
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
TRACED = ("run_instance",) + tuple(name for names in STAGES.values() for name in names)

# Fresh interpreter doing what a CLI start does before the first replication.
_SETUP_PROBE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import softsched; "
    "softsched.ExperimentConfig(**json.loads(sys.argv[2]))"
)


def load_harness():
    """Import softsched.harness from this checkout's src/, never from elsewhere."""
    if not (SRC / "softsched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no softsched package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import softsched.harness as harness

    if Path(harness.__file__).resolve().parent != SRC / "softsched":
        sys.exit(f"perfbench: imported softsched from {harness.__file__}, not {SRC}")
    return harness


class Outcome:
    """Replications attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, set[tuple[str, str]]] = {}  # chunk seed -> CSV digests seen

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


def workload_configs(harness, name: str, seed: int) -> list:
    """The configs of a workload's chunks for one seed."""
    spec = dict(WORKLOADS[name])
    chunks = spec.pop("chunks")
    spec.pop("traced_chunks")
    return [harness.ExperimentConfig(seed=seed * chunks + k, **COMMON, **spec)
            for k in range(chunks)]


def time_setups(cfg, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import softsched and build ``cfg``."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(dataclasses.asdict(cfg))]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


_CAL_VEC = np.linspace(0.0, 1.0, 64)


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work.

    It uses nothing from softsched, so a change to the program cannot change
    it; it only follows how fast the host runs this process right now.
    """
    start = time.perf_counter()
    acc, counts, x = 0, {}, _CAL_VEC
    for i in range(120_000):
        acc += i * i % 7
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for _ in range(3_000):
        x = np.maximum(x * 0.5, _CAL_VEC[::-1]) + 1.0
        acc += int(np.argmax(x))
    return time.perf_counter() - start


def reset_peak_rss() -> None:
    """Start a new peak-resident-memory window for this process (Linux only)."""
    gc.collect()
    with contextlib.suppress(OSError), open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset_peak_rss, in MiB."""
    with contextlib.suppress(OSError):
        return int(re.search(r"VmHWM:\s+(\d+)", Path("/proc/self/status").read_text())[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def checked_sweep(harness, cfg, out_dir: Path, outcome: Outcome, tracer: Tracer | None = None):
    """One CLI-equivalent sweep plus its checks; (seconds, records) or None if it raised."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    results, detail = out_dir / "results.csv", out_dir / "detail.csv"
    outcome.attempted += cfg.runs
    try:
        start = time.perf_counter()
        with span("sweep"):
            table, records = harness.run_sweep(cfg)
        with span("write"):
            harness.write_results(table, results)
            harness.write_detail(records, detail)
        elapsed = time.perf_counter() - start
    except Exception as exc:
        outcome.fail(cfg.runs, f"sweep raised {type(exc).__name__}: {exc}")
        return None

    expected = cfg.runs * len(cfg.beta_values()) * len(cfg.modes)
    bad = check_records(records, expected, cfg.runs)
    for (seed, run_id), name, message in tracer.failures if tracer else ():
        if seed == cfg.seed:
            bad.setdefault(run_id, f"{name}: {message}")
    seen = outcome.digests.setdefault(cfg.seed, set())
    seen.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (results, detail)))
    if len(seen) > 1:
        bad = dict.fromkeys(range(cfg.runs), "CSV bytes differ between repeats of one seed")
    if bad:
        run_id = min(bad)
        outcome.fail(len(bad), f"{len(bad)} runs failed checks; run {run_id}: {bad[run_id]}")
    return elapsed, records


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round of the length seen so far still ends within ``seconds``."""
    return rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds


def chunk_quality(chunk_records) -> dict:
    """quality() over chunks of equal shape: the mean of their means, so over all cells."""
    per_chunk = [quality(records) for records in chunk_records]
    return {k: statistics.fmean(q[k] for q in per_chunk) for k in per_chunk[0]}


def measure_end_to_end(harness, cfgs, seconds: float, out_dir: Path, outcome: Outcome) -> dict:
    """Sweep every chunk once, then repeat chunks in order while time remains.

    Each sweep's wall time is scaled by CAL_REFERENCE_S over the calibration
    time around it, and each set-up probe's by the calibration right after
    it, so a phase in which the host runs this process slowly
    (seconds to minutes, when other work shares the machine) cancels out; a
    chunk's time is the median of its scaled sweeps. Chunk 0 is always swept
    twice, so at least one byte-identical rerun is checked.
    """
    time_setups(cfgs[0], 1)  # the first start also writes bytecode caches
    reset_peak_rss()  # so an earlier workload in this process does not count
    setups, best, scaled, cost, records = [], {}, {}, {}, {}
    start = time.perf_counter()
    for i, cfg in enumerate(itertools.chain(cfgs, itertools.cycle(cfgs))):
        now = time.perf_counter()
        if i > len(cfgs) and now - start + cost[cfg.seed] > seconds:
            break
        probes = time_setups(cfg, 1) if i % SETUP_EVERY == 0 else []
        before = calibrate()
        setups += [t * CAL_REFERENCE_S / before for t in probes]
        result = checked_sweep(harness, cfg, out_dir, outcome)
        if result is None:
            return {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
        cal = (before + calibrate()) / 2
        best[cfg.seed] = min(best.get(cfg.seed, math.inf), result[0])
        scaled.setdefault(cfg.seed, []).append(result[0] * CAL_REFERENCE_S / cal)
        cost[cfg.seed] = time.perf_counter() - now
        records[cfg.seed] = result[1]
    runs = sum(cfg.runs for cfg in cfgs)
    return {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb(),
            "runs_per_s": runs / sum(statistics.median(v) for v in scaled.values()),
            "wall_runs_per_s": runs / sum(best.values()),
            **chunk_quality(records.values())}


def _layer_hooks(stats: dict) -> dict:
    def rates(result, *args, **kwargs):
        stats["links"].append(len(result[0]))

    def conflict(g, *args, **kwargs):
        n = g.n_links
        stats["density"].append((np.count_nonzero(g.adjacency) - n) / (n * (n - 1)) if n > 1 else 0.0)

    def components(comps, *args, **kwargs):
        stats["J"].append(len(comps))

    def fp(sol, payoff, *args, **kwargs):
        used = int(np.count_nonzero(sol.state.col_counts))
        stats["fp_iterations"].append(sol.iterations)
        stats["fp_unconverged"].append(not sol.converged)
        stats["cols_used"].append(used)
        stats["col_ratio"].append(used / payoff.n_components)
        return certificate_violation(payoff, sol)

    def verify(check, schedule, g, rates_, *args, **kwargs):
        if not check:
            return f"verify_schedule rejected the schedule: {check.violation}"
        return schedule_violation(schedule, g, rates_)

    def coloring(result, *args, **kwargs):
        stats["classes"].append(len(result.classes))

    return {
        "accumulate_rates": rates,
        "build_conflict_graph": conflict,
        "enumerate_maximal": components,
        "fp_solve": fp,
        "verify_schedule": verify,
        "greedy_color": coloring,
    }


def make_tracer(harness) -> tuple[Tracer, dict]:
    """A tracer over TRACED names, keyed by (chunk seed, run id), and the stats its hooks fill."""
    stats = {k: [] for k in ("links", "density", "J", "fp_iterations", "fp_unconverged",
                             "cols_used", "col_ratio", "classes")}
    tracer = Tracer(harness, TRACED, hooks=_layer_hooks(stats),
                    keys={"run_instance": lambda cfg, run_id, *args, **kwargs: (cfg.seed, run_id)})
    return tracer, stats


def layer_metrics(tracer: Tracer, stats: dict, runs: int) -> dict:
    """Per-layer metrics of one traced sweep; times are per replication."""
    spent: dict[str, float] = {}
    for s in tracer.spans:
        spent[s.name] = spent.get(s.name, 0.0) + (s.end - s.start)
    harness_self = sum(t for s, t in zip(tracer.spans, self_times(tracer.spans))
                       if s.name in ("sweep", "run_instance"))

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    metrics = {name: sum(spent.get(n, 0.0) for n in names) / runs for name, names in STAGES.items()}
    metrics.update({
        "harness.self_s": harness_self / runs,
        "harness.write_s": spent.get("write", 0.0) / runs,
        "topology.links_mean": mean(stats["links"]),
        "conflict.density_mean": mean(stats["density"]),
        "components.J_mean": mean(stats["J"]),
        "components.J_max": max(stats["J"], default=0),
        "components.cap_hits": cap_hits(tracer.spans),
        "game.fp_iterations_mean": mean(stats["fp_iterations"]),
        "game.fp_iterations_max": max(stats["fp_iterations"], default=0),
        "game.fp_unconverged": sum(stats["fp_unconverged"]),
        "game.fp_cols_used_mean": mean(stats["cols_used"]),
        "game.fp_col_use_ratio": mean(stats["col_ratio"]),
        "coloring.classes_mean": mean(stats["classes"]),
    })
    return metrics


def cap_hits(spans) -> int:
    """Component enumerations that stopped at the component cap."""
    return sum(s.name == "enumerate_maximal" and s.error == "ResourceLimitError" for s in spans)


def measure_per_layer(harness, cfgs, seconds: float, out_dir: Path, outcome: Outcome,
                      spans_path: Path) -> dict:
    """Rounds over the chunks, each chunk swept untraced and then traced."""
    plain_times, traced_times, per_round, spans_out, records = [], [], [], [], {}
    start = time.perf_counter()
    while another_round(start, len(per_round), seconds):
        tracer, stats = make_tracer(harness)
        plain_total = traced_total = 0.0
        for cfg in cfgs:
            plain = checked_sweep(harness, cfg, out_dir, outcome)
            with tracer:
                traced = checked_sweep(harness, cfg, out_dir, outcome, tracer)
            if not tracer.restored():
                outcome.fail(cfg.runs, "traced names were not restored after the traced sweep")
            if plain is None or traced is None:
                # A cap hit aborts the sweep; it is still counted.
                return {"components.cap_hits": cap_hits(tracer.spans)}
            if plain[1] != traced[1]:
                outcome.fail(cfg.runs, "traced and untraced sweeps returned different records")
            plain_total += plain[0]
            traced_total += traced[0]
            records[cfg.seed] = traced[1]
        plain_times.append(plain_total)
        traced_times.append(traced_total)
        per_round.append(layer_metrics(tracer, stats, sum(cfg.runs for cfg in cfgs)))
        spans_out.append(tracer.spans)

    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_share"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0)
    metrics.update({f"game.{k}": v for k, v in chunk_quality(records.values()).items()
                    if k in ("gap_slots_mean", "bracket_rel_mean")})
    with open(spans_path, "w") as fh:
        origin = spans_out[0][0].start
        for round_idx, spans in enumerate(spans_out):
            for s in spans:
                fh.write(json.dumps({
                    "round": round_idx, "name": s.name, "start": s.start - origin,
                    "end": s.end - origin, "parent": s.parent, "seed_run": s.request,
                    "error": s.error}) + "\n")
    return metrics


def run_workload(harness, name: str, seed: int, seconds: float, trace: int | None,
                 outcome: Outcome) -> dict:
    cfgs = workload_configs(harness, name, seed)
    OUT.mkdir(exist_ok=True)
    metrics: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if trace in (None, 0):
            metrics.update(measure_end_to_end(harness, cfgs, seconds, Path(tmp), outcome))
        if trace in (None, 1):
            spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
            traced = cfgs[:WORKLOADS[name]["traced_chunks"]]
            metrics.update(measure_per_layer(harness, traced, seconds, Path(tmp), outcome, spans_path))
            print(f"{name}: spans written to {spans_path}")
    return metrics


def report(name: str, metrics: dict, outcome: Outcome, trace: int | None) -> dict:
    """Print every metric by name with its unit; return the declared ones for the JSON line."""
    declared = {**(END_TO_END if trace in (None, 0) else {}), **(PER_LAYER if trace in (None, 1) else {})}
    extra = {
        "soft_slots_per_packet": "slot/packet",
        "coloring_slots_per_packet": "slot/packet",
        "gain_vs_coloring": "share",
        "gap_slots_mean": "slot",
        "bracket_rel_mean": "share",
        "wall_runs_per_s": "1/s",
    }
    for metric, unit in {**declared, **extra}.items():
        if metric in metrics:
            print(f"{name:9s} {metric:27s} {metrics[metric]:<14.6g} {unit}")
    program = [*STAGES, "harness.self_s", "harness.write_s"]
    if all(m in metrics for m in program):
        total = sum(metrics[m] for m in program)
        for stage in program:
            share = metrics[stage] / total
            print(f"{name:9s} {'share.' + stage:27s} {share:<14.3f} of traced program time")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{name:9s} {'failed_share':27s} {share:<14.6g} share")
    # One digest per CSV kind, over every chunk's CSV digests in chunk order.
    seen = [sorted(outcome.digests[seed]) for seed in sorted(outcome.digests)]
    results, detail = (hashlib.sha256("".join(d[i] for ds in seen for d in ds).encode()).hexdigest()
                       for i in (0, 1))
    print(f"{name:9s} results_sha256 {results}  detail_sha256 {detail}")
    for problem in outcome.problems:
        print(f"{name:9s} FAILED {problem}", file=sys.stderr)
    return {m: {"value": float(metrics.get(m, 0.0)), "unit": u} for m, u in declared.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measuring time per workload and phase (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = ap.parse_args(argv)
    harness = load_harness()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        outcome = Outcome()
        measured = run_workload(harness, name, args.seed, args.seconds, args.trace, outcome)
        declared = report(name, measured, outcome, args.trace)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in declared.items()})
        attempted += outcome.attempted
        failed += outcome.failed
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
