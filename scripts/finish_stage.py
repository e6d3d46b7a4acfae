#!/usr/bin/env python3
"""CPU time of enumeration, FP, the certificate, the exact finish and extraction, per replication.

    python scripts/finish_stage.py --checkout . --seed 1
    python scripts/finish_stage.py --checkout ../old --seed 4 --passes 10
    python scripts/finish_stage.py --nodes 30 --sessions 20 --chunks 1 --runs 2 --passes 3

perfbench has no stage for the finish, so this measures it apart. It sweeps
the ``desk`` workload's chunks of one seed (perfbench's configs: root seeds
seed * 30 + k for k < 30, 10 runs each) with the checkout's
``softsched.harness.run_instance``, wrapping ``harness.enumerate_maximal``
to keep each call's graph, and ``harness.fp_solve``,
``harness.certified_schedule``, ``harness.finish_exact`` and
``harness.extract_schedule`` to keep each call's arguments. Each call is
replayed with the arguments it was made with, so one script replays a
checkout whose finish takes FP's solution, ``finish_exact(H, sol)``, and
one whose finish takes the payoff alone, ``finish_exact(H)``, whatever FP
settings either passes. --nodes and --sessions change the instance size
(default: desk's 10 and 10), --chunks and --runs the number of chunks and
their runs. A replication whose enumeration hits the component cap
(``ResourceLimitError``) is counted in ``cap_hits`` and left out of
everything else. It then replays those calls: the enumeration's, FP's,
the certificate's, the finish's and the extraction's CPU times per
replication are each the least over --passes replays, and a SHA-256 of
each stage's replayed outputs lets two checkouts be compared bit for bit.
The finish's digest covers each finished game's x, y and bracket only, as
its iteration count and convergence flag mean FP's in a finish that takes
FP's solution and its own in one that does not. ``games`` counts the games
FP solved and ``finished_games`` those the finish saw;
``certified_share`` is the share of games the certificate proved, so the
finish never saw them. Each per-game figure is over the games its stage
saw: components and FP iterations over every game, the whole-game share
over the finished ones. A further replay wraps the finish's simplex
kernels and reads the pivots each returns: per replication, the pivots of
the first masters and of all dual simplex solves, the pivots of the warm
primal solves, and the pricing rounds (the solves after a finish call's
first); the largest count of any solve and its largest share of the
Dantzig budget; and the share of games whose first master already holds
every column (finished whole). The output is one JSON object.
"""

from __future__ import annotations

import os

# The sweep is single-threaded: keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

DESK = dict(alpha=4.0, poisson_mean=5.0, beta_min_db=0.0, beta_max_db=30.0, beta_step_db=5.0)
CHUNKS = 30


def digest(arrays) -> str:
    """SHA-256 over the bytes of each array in turn, so equal digests mean bit-identical outputs."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def solutions_digest(sols, counters: bool) -> str:
    """``digest`` over each solution's x, y and bounds, and its iterations and convergence flag
    when counters is true."""
    return digest(a for s in sols for a in (s.x, s.y, np.array(
        [s.value_lower, s.value_upper] + ([s.iterations, s.converged] if counters else []),
        dtype=float)))


def schedules_digest(schedules) -> str:
    """SHA-256 over each schedule's slots and served counts as text, so any int stays exact."""
    sha = hashlib.sha256()
    for s in schedules:
        sha.update(repr((s.slots, s.served)).encode())
    return sha.hexdigest()


KERNELS = ("_dual_simplex", "_primal_simplex")


def count_solves(game, finish, calls) -> dict:
    """Pivots, rounds and whole games of ``finish`` while the calls replay, read from its kernels.

    Each kernel returns its pivots last (or alone) and takes its Dantzig
    budget last; the first master's matrix is the dual kernel's first
    argument, one game's (L, C) pool.
    """
    solves, real = [], {name: getattr(game, name) for name in KERNELS}

    def spy(name):
        def kernel(*args):
            out = real[name](*args)
            solves.append((name, args, out[-1] if isinstance(out, tuple) else out))
            return out
        return kernel

    totals = dict.fromkeys(("first_master", "dual", "warm", "rounds", "whole"), 0)
    largest, share = 0, 0.0
    for name in real:
        setattr(game, name, spy(name))
    try:
        for args in calls:
            solves.clear()
            finish(*args)
            (_, (a, *_), first), *later = solves
            totals["first_master"] += first
            totals["whole"] += a.shape[1] == args[0].n_components
            totals["rounds"] += len(later)
            for name, kernel_args, pivots in solves:
                totals["dual" if name == "_dual_simplex" else "warm"] += pivots
                largest = max(largest, pivots)
                if kernel_args[-1] > 0:
                    share = max(share, pivots / kernel_args[-1])
    finally:
        for name, kernel in real.items():
            setattr(game, name, kernel)
    return dict(totals, largest=largest, share=share)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path("."))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--nodes", type=int, default=10)
    ap.add_argument("--sessions", type=int, default=10)
    ap.add_argument("--chunks", type=int, default=CHUNKS)
    ap.add_argument("--runs", type=int, default=10, help="runs per chunk")
    args = ap.parse_args(argv)
    for name in ("passes", "chunks", "runs"):
        if getattr(args, name) < 1:
            ap.error(f"--{name} must be at least 1, got {getattr(args, name)}")
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from softsched import game, harness
    from softsched.components import ResourceLimitError

    # Each stage the harness calls, under the short name its output keys use.
    stages = dict(enumerate="enumerate_maximal", fp="fp_solve", certificate="certified_schedule",
                  finish="finish_exact", extract="extract_schedule")
    real = {key: getattr(harness, name) for key, name in stages.items()}
    calls = {key: [] for key in stages}  # each call's positional arguments, in call order

    def keeper(key):
        def keep(*args):
            calls[key].append(args)
            return real[key](*args)
        return keep

    for key, name in stages.items():
        setattr(harness, name, keeper(key))
    cap_hits = 0
    for k in range(args.chunks):
        cfg = harness.ExperimentConfig(seed=args.seed * CHUNKS + k, runs=args.runs,
                                       n_nodes=args.nodes, n_sessions=args.sessions, **DESK)
        for run_id in range(cfg.runs):
            marks = {key: len(kept) for key, kept in calls.items()}
            try:
                harness.run_instance(cfg, run_id)
            except ResourceLimitError:
                cap_hits += 1
                for key, mark in marks.items():
                    del calls[key][mark:]
    for key, name in stages.items():
        setattr(harness, name, real[key])

    replications = args.chunks * args.runs - cap_hits
    if not replications:
        sys.exit("finish_stage: every replication hit the component cap")
    best, out = dict.fromkeys(stages, float("inf")), {}
    for _ in range(args.passes):
        for key, stage in real.items():
            start = time.process_time()
            out[key] = [stage(*call) for call in calls[key]]
            best[key] = min(best[key], time.process_time() - start)
    comps, sols, certs = out["enumerate"], out["fp"], out["certificate"]
    games, finished = len(sols), len(calls["finish"])
    certified = sum(cert is not None for cert in certs)
    solves = count_solves(game, real["finish"], calls["finish"])
    print(json.dumps({
        "seed": args.seed,
        "nodes": args.nodes,
        "sessions": args.sessions,
        "replications": replications,
        "cap_hits": cap_hits,
        "games": games,
        "finished_games": finished,
        "certified_share": certified / games if games else 0.0,
        "components_per_game": sum(map(len, comps)) / len(comps) if comps else 0.0,
        "passes": args.passes,
        "enumerate_cpu_ms_per_replication": best["enumerate"] / replications * 1e3,
        "fp_cpu_ms_per_replication": best["fp"] / replications * 1e3,
        "certificate_cpu_ms_per_replication": best["certificate"] / replications * 1e3,
        "finish_cpu_ms_per_replication": best["finish"] / replications * 1e3,
        "extract_cpu_ms_per_replication": best["extract"] / replications * 1e3,
        "enumerate_sha256": digest(np.array(row) for cs in comps for row in (
            [len(c.members) for c in cs], [i for c in cs for i in c.members])),
        "fp_sha256": solutions_digest(sols, counters=True),
        "certificate_sha256": hashlib.sha256(repr(certs).encode()).hexdigest(),
        "finish_sha256": solutions_digest(out["finish"], counters=False),
        "extract_sha256": schedules_digest(out["extract"]),
        "fp_iterations_per_game": sum(sol.iterations for sol in sols) / games if games else 0.0,
        "pricing_rounds_per_replication": solves["rounds"] / replications,
        "whole_game_share": solves["whole"] / finished if finished else 0.0,
        "first_master_pivots_per_replication": solves["first_master"] / replications,
        "dual_pivots_per_replication": solves["dual"] / replications,
        "warm_pivots_per_replication": solves["warm"] / replications,
        "largest_game_pivots": solves["largest"],
        "largest_budget_share": solves["share"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
