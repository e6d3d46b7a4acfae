#!/usr/bin/env python3
"""CPU time of enumeration, fictitious play and the exact finish, and their sizes, per replication.

    python scripts/finish_stage.py --checkout . --seed 1
    python scripts/finish_stage.py --checkout ../old --seed 4 --passes 10
    python scripts/finish_stage.py --nodes 30 --sessions 20 --chunks 1 --runs 2 --passes 3

perfbench has no stage for the finish, so this measures it apart. It sweeps
the ``desk`` workload's chunks of one seed (perfbench's configs: root seeds
seed * 30 + k for k < 30, 10 runs each) with the checkout's
``softsched.harness.run_instance``, wrapping ``harness.enumerate_maximal``
to keep each call's graph, ``harness.fp_solve`` to keep each call's
arguments, whatever FP settings the checkout passes, and
``harness.finish_stack`` to keep each call's payoffs and FP solutions. --nodes and --sessions change the instance size
(default: desk's 10 and 10), --chunks and --runs the number of chunks and
their runs. It then replays those calls: the enumeration's, FP's and the
finish's CPU times per replication are each the least over --passes
replays, and a SHA-256 of each stage's replayed outputs lets two checkouts
be compared bit for bit. A further replay counts the stacked rounds
(``_dual_simplex`` calls), the games whose first master already holds every
column (finished whole), and the stacked pivots, by line-tracing
``_dual_simplex``'s basis update ``basis[g, r] = q``, the last statement of
each pivot. The output is one JSON object.
"""

from __future__ import annotations

import os

# The sweep is single-threaded: keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
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


def solutions_digest(sols) -> str:
    """``digest`` over each solution's x, y, bounds, iterations and convergence flag."""
    return digest(a for s in sols for a in (s.x, s.y, np.array(
        [s.value_lower, s.value_upper, s.iterations, s.converged], dtype=float)))


def count_pivots(game, calls) -> int:
    """Executions of ``basis[g, r] = q`` in ``game._dual_simplex`` while the calls replay."""
    lines, first = inspect.getsourcelines(game._dual_simplex)
    marks = {first + i for i, line in enumerate(lines) if line.strip() == "basis[g, r] = q"}
    if not marks:
        sys.exit("finish_stage: _dual_simplex has no `basis[g, r] = q` statement to count")
    code, count = game._dual_simplex.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno in marks
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        for payoffs, sols in calls:
            game.finish_stack(payoffs, sols)
    finally:
        sys.settrace(None)
    return count


def count_rounds(game, calls) -> tuple[int, int]:
    """Stacked rounds while the calls replay, and the games whose first master holds all columns."""
    real, shapes = game._dual_simplex, []

    def spy(a, b, rows, cols):
        shapes.append((a > 0).any(axis=1).sum(axis=1))  # each game's own columns
        return real(a, b, rows, cols)

    game._dual_simplex, rounds, whole = spy, 0, 0
    try:
        for payoffs, sols in calls:
            shapes.clear()
            game.finish_stack(payoffs, sols)
            rounds += len(shapes)
            whole += sum(int(n) == H.n_components for n, H in zip(shapes[0], payoffs))
    finally:
        game._dual_simplex = real
    return rounds, whole


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

    graphs, fp_calls, calls = [], [], []
    enumerate_maximal, fp_solve, finish = (harness.enumerate_maximal, harness.fp_solve,
                                           harness.finish_stack)

    def keep_graph(g):
        graphs.append(g)
        return enumerate_maximal(g)

    def keep_fp(*args, **kwargs):
        fp_calls.append((args, kwargs))
        return fp_solve(*args, **kwargs)

    def keep(payoffs, sols):
        calls.append((payoffs, sols))
        return finish(payoffs, sols)

    harness.enumerate_maximal, harness.fp_solve, harness.finish_stack = keep_graph, keep_fp, keep
    for k in range(args.chunks):
        cfg = harness.ExperimentConfig(seed=args.seed * CHUNKS + k, runs=args.runs,
                                       n_nodes=args.nodes, n_sessions=args.sessions, **DESK)
        for run_id in range(cfg.runs):
            harness.run_instance(cfg, run_id)
    harness.enumerate_maximal, harness.fp_solve, harness.finish_stack = (enumerate_maximal,
                                                                         fp_solve, finish)

    replications = args.chunks * args.runs
    best = dict.fromkeys(("enumerate", "fp", "finish"), float("inf"))
    for _ in range(args.passes):
        start = time.process_time()
        comps = [enumerate_maximal(g) for g in graphs]
        best["enumerate"] = min(best["enumerate"], time.process_time() - start)
        start = time.process_time()
        sols = [fp_solve(*fp_args, **fp_kwargs) for fp_args, fp_kwargs in fp_calls]
        best["fp"] = min(best["fp"], time.process_time() - start)
        start = time.process_time()
        exact = [sol for payoffs, fp in calls for sol in game.finish_stack(payoffs, fp)]
        best["finish"] = min(best["finish"], time.process_time() - start)
    games = sum(len(payoffs) for payoffs, _ in calls)
    rounds, whole = count_rounds(game, calls)
    print(json.dumps({
        "seed": args.seed,
        "nodes": args.nodes,
        "sessions": args.sessions,
        "replications": replications,
        "games": games,
        "components_per_game": sum(map(len, comps)) / len(comps) if comps else 0.0,
        "passes": args.passes,
        "enumerate_cpu_ms_per_replication": best["enumerate"] / replications * 1e3,
        "fp_cpu_ms_per_replication": best["fp"] / replications * 1e3,
        "finish_cpu_ms_per_replication": best["finish"] / replications * 1e3,
        "enumerate_sha256": digest(np.array(row) for cs in comps for row in (
            [len(c.members) for c in cs], [i for c in cs for i in c.members])),
        "fp_sha256": solutions_digest(sols),
        "finish_sha256": solutions_digest(exact),
        "fp_iterations_per_game": sum(sol.iterations for sol in sols) / games,
        "stacked_rounds_per_replication": rounds / replications,
        "whole_game_share": whole / games,
        "stacked_pivots_per_replication": count_pivots(game, calls) / replications,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
