#!/usr/bin/env python3
"""Compare two checkouts on the sweep benchmark, in alternating pairs of runs.

    python scripts/bench_pairs.py --parent ../old --change . --workload desk --seed 1 --pairs 10
    python scripts/bench_pairs.py --parent . --change . --pairs 1 --seconds 1

Each run is one ``perfbench/run.py`` process started in a checkout, so each
side measures its own program with its own benchmark code. Pair i runs the
parent first when i is even and the change first when i is odd. The output
is one JSON object: per metric, each side's runs, quartiles (the middle one
is the median), the number of pairs the change wins in the metric's declared
direction (ties count for neither) and the relative change of the medians;
per side, the CSV digests and whether every run passed its checks. The exit
status is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGESTS = re.compile(r"^(\S+)\s+results_sha256 (\w+)\s+detail_sha256 (\w+)$", re.M)


def perfbench(checkout: Path, args) -> dict:
    """One benchmark process in ``checkout``: its JSON summary plus the CSV digests it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.trace is not None:
        cmd += ["--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_pairs: {checkout}: no JSON summary (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    summary["returncode"] = proc.returncode
    summary["digests"] = {name: [results, detail]
                          for name, results, detail in DIGESTS.findall(proc.stdout)}
    return summary


def directions(checkout: Path) -> dict:
    """Metric name -> (better, bound) from the checkout's BENCHMARK.json; bound is None per layer."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "higher" else -1
    p_q, c_q = quartiles(parent), quartiles(change)
    return {
        "parent_runs": parent,
        "change_runs": change,
        "parent_quartiles": p_q,
        "change_quartiles": c_q,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "relative_median_change": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else None,
        "change_median_outside_parent_iqr": not p_q[0] <= c_q[1] <= p_q[2],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload and phase (default: perfbench's own)")
    ap.add_argument("--trace", type=int, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(perfbench(getattr(args, side), args))
            print(f"bench_pairs: pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)

    declared = directions(args.change)
    metrics = {}
    for name in runs["change"][0]["metrics"]:
        # With --workload all, perfbench prefixes each name with its workload.
        better, bound = declared[name if name in declared else name.split(".", 1)[1]]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        metrics[name] = {"unit": runs["change"][0]["metrics"][name]["unit"], "better": better,
                         "bound": bound, **compare(values["parent"], values["change"], better)}
    trace = {None: "both", 0: "end-to-end", 1: "per-layer"}[args.trace]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "phase": trace,
        "order": "pair i runs the parent first when i is even, the change first when i is odd",
        "metrics": metrics,
        "failed_share": {side: [r["failed"] / r["attempted"] if r["attempted"] else 1.0
                                for r in runs[side]] for side in SIDES},
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "digests": {side: [] for side in SIDES},  # the distinct ones, in run order
    }
    for side in SIDES:
        for r in runs[side]:
            if r["digests"] not in report["digests"][side]:
                report["digests"][side].append(r["digests"])
    print(json.dumps(report, indent=1))
    return 0 if all(r["returncode"] == 0 for side in SIDES for r in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
