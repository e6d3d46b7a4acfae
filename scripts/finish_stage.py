#!/usr/bin/env python3
"""CPU time of enumeration, FP, the certificate, the exact finish and extraction, per replication.

    python scripts/finish_stage.py --checkout . --seed 1
    python scripts/finish_stage.py --checkout ../old --seed 4 --passes 10
    python scripts/finish_stage.py --nodes 30 --sessions 20 --chunks 1 --runs 2 --passes 3

perfbench has no stage for the finish, so this measures it apart. It sweeps
the ``desk`` workload's chunks of one seed (perfbench's configs: root seeds
seed * 30 + k for k < 30, 10 runs each) with the checkout's
``softsched.harness.run_instance``, wrapping ``harness.enumerate_maximal``
to keep each call's graph, ``harness.fp_solve`` to keep each call's
arguments, whatever FP settings the checkout passes,
``harness.certified_schedule`` (where the checkout has it) to keep each
call's graph and rates, the finish the checkout's harness calls
(``finish_exact`` on one game, or ``finish_stack`` on a replication's games
together) to keep each call's payoffs and FP solutions, and
``harness.extract_schedule`` to keep each call's arguments. --nodes and
--sessions change the instance size (default: desk's 10 and 10), --chunks
and --runs the number of chunks and their runs. A replication whose
enumeration hits the component cap (``ResourceLimitError``) is counted in
``cap_hits`` and left out of everything else. It then replays those calls:
the enumeration's, FP's, the certificate's, the finish's and the
extraction's CPU times per replication are each the least over --passes
replays, and a SHA-256 of each stage's replayed outputs lets two checkouts
be compared bit for bit. ``games`` counts the games FP solved and
``finished_games`` those the finish saw; ``certified_share`` is the share
of games the certificate proved, so the finish never saw them. Each
per-game figure is over the games its stage saw: components and FP
iterations over every game, the whole-game share over the finished ones. A
further replay wraps the finish's simplex kernels and reads the pivots
each returns: per replication, the pivots of the first masters and of all
dual simplex solves, the pivots of the warm primal solves, and the pricing
rounds (the solves after a finish call's first); the largest count of any
solve and, where the kernels take a budget, its largest share of that
budget; and the share of games whose first master already holds every
column (finished whole). A checkout that stacks games counts each solve's
largest per-game count. A checkout that re-solves
each pricing round from scratch shows them as dual simplex solves and no
warm ones. The output is one JSON object.
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


def solutions_digest(sols) -> str:
    """``digest`` over each solution's x, y, bounds, iterations and convergence flag."""
    return digest(a for s in sols for a in (s.x, s.y, np.array(
        [s.value_lower, s.value_upper, s.iterations, s.converged], dtype=float)))


def schedules_digest(schedules) -> str:
    """SHA-256 over each schedule's slots and served counts as text, so any int stays exact."""
    sha = hashlib.sha256()
    for s in schedules:
        sha.update(repr((s.slots, s.served)).encode())
    return sha.hexdigest()


KERNELS = ("_dual_simplex", "_primal_simplex")  # a checkout may lack the warm one


def count_solves(game, finish, calls) -> dict:
    """Pivots, rounds and whole games of ``finish`` while the calls replay, read from its kernels.

    Each kernel returns its pivots last (or alone): one count, or one per
    game from a checkout that stacks games, so a solve's pivots are the
    largest count it returns. A kernel's budget, where it takes one, is its
    last argument, and the first master's matrix its first: two-dimensional
    for one game, or a stack of games' masters zero-padded to a common shape.
    """
    solves, real = [], {name: getattr(game, name) for name in KERNELS if hasattr(game, name)}

    def spy(name):
        def kernel(*args):
            out = real[name](*args)
            solves.append((name, args, np.asarray(out[-1] if isinstance(out, tuple) else out)))
            return out
        return kernel

    totals = dict.fromkeys(("first_master", "dual", "warm", "rounds", "whole"), 0)
    largest, share = 0, None
    for name in real:
        setattr(game, name, spy(name))
    try:
        for payoffs, sols in calls:
            solves.clear()
            finish(payoffs, sols)
            if not solves:  # no game to finish
                continue
            (_, (a, *_), first), *later = solves
            totals["first_master"] += int(first.max())
            masters = a.reshape(-1, *a.shape[-2:])  # one (L, C) master per game
            totals["whole"] += sum(int(n) == H.n_components  # each game's own columns
                                   for n, H in zip((masters > 0).any(axis=1).sum(axis=1), payoffs))
            totals["rounds"] += len(later)
            for name, args, pivots in solves:
                totals["dual" if name == "_dual_simplex" else "warm"] += int(pivots.max())
                largest = max(largest, int(pivots.max()))
                if len(args) in (3, 5):  # the kernels take a budget
                    budget = np.asarray(args[-1], dtype=float)
                    used = np.divide(pivots, budget, out=np.zeros(pivots.shape), where=budget > 0)
                    share = max(share or 0.0, float(used.max()))
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

    graphs, fp_calls, cert_calls, calls, extract_calls = [], [], [], [], []
    enumerate_maximal, fp_solve, extract = (
        harness.enumerate_maximal, harness.fp_solve, harness.extract_schedule)
    certify = getattr(harness, "certified_schedule", None)  # a checkout may finish every game
    # A checkout may finish a replication's games in one stacked call.
    finish_name = "finish_stack" if hasattr(harness, "finish_stack") else "finish_exact"
    finish = getattr(harness, finish_name)

    def finish_games(payoffs, sols):
        """The finished games of one kept call, finished as the checkout's harness finishes them."""
        if finish_name == "finish_stack":
            return finish(payoffs, sols)
        return list(map(finish, payoffs, sols))

    def keep_graph(g):
        graphs.append(g)
        return enumerate_maximal(g)

    def keep_fp(*args, **kwargs):
        fp_calls.append((args, kwargs))
        return fp_solve(*args, **kwargs)

    def keep_certificate(g, r):
        cert_calls.append((g, r))
        return certify(g, r)

    def keep(payoffs, sols):  # finish_exact's one game, or finish_stack's lists of them
        calls.append((payoffs, sols) if finish_name == "finish_stack" else ([payoffs], [sols]))
        return finish(payoffs, sols)

    def keep_extract(*args):
        extract_calls.append(args)
        return extract(*args)

    harness.enumerate_maximal, harness.fp_solve, harness.extract_schedule = (
        keep_graph, keep_fp, keep_extract)
    setattr(harness, finish_name, keep)
    if certify is not None:
        harness.certified_schedule = keep_certificate
    cap_hits = 0
    for k in range(args.chunks):
        cfg = harness.ExperimentConfig(seed=args.seed * CHUNKS + k, runs=args.runs,
                                       n_nodes=args.nodes, n_sessions=args.sessions, **DESK)
        for run_id in range(cfg.runs):
            kept = len(graphs), len(fp_calls), len(cert_calls), len(calls), len(extract_calls)
            try:
                harness.run_instance(cfg, run_id)
            except ResourceLimitError:
                cap_hits += 1
                del graphs[kept[0]:], fp_calls[kept[1]:], cert_calls[kept[2]:]
                del calls[kept[3]:], extract_calls[kept[4]:]
    harness.enumerate_maximal, harness.fp_solve, harness.extract_schedule = (
        enumerate_maximal, fp_solve, extract)
    setattr(harness, finish_name, finish)
    if certify is not None:
        harness.certified_schedule = certify

    replications = args.chunks * args.runs - cap_hits
    if not replications:
        sys.exit("finish_stage: every replication hit the component cap")
    best = dict.fromkeys(("enumerate", "fp", "certificate", "finish", "extract"), float("inf"))
    for _ in range(args.passes):
        start = time.process_time()
        comps = [enumerate_maximal(g) for g in graphs]
        best["enumerate"] = min(best["enumerate"], time.process_time() - start)
        start = time.process_time()
        sols = [fp_solve(*fp_args, **fp_kwargs) for fp_args, fp_kwargs in fp_calls]
        best["fp"] = min(best["fp"], time.process_time() - start)
        start = time.process_time()
        certs = [certify(*cert_args) for cert_args in cert_calls]
        best["certificate"] = min(best["certificate"], time.process_time() - start)
        start = time.process_time()
        exact = [sol for payoffs, fp in calls for sol in finish_games(payoffs, fp)]
        best["finish"] = min(best["finish"], time.process_time() - start)
        start = time.process_time()
        schedules = [extract(*extract_args) for extract_args in extract_calls]
        best["extract"] = min(best["extract"], time.process_time() - start)
    games, finished = len(sols), sum(len(payoffs) for payoffs, _ in calls)
    certified = sum(cert is not None for cert in certs)
    solves = count_solves(game, finish_games, calls)
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
        "fp_sha256": solutions_digest(sols),
        "certificate_sha256": hashlib.sha256(repr(certs).encode()).hexdigest(),
        "finish_sha256": solutions_digest(exact),
        "extract_sha256": schedules_digest(schedules),
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
