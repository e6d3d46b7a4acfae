"""Correctness checks and answer-quality metrics over sweep outputs.

Everything here recomputes from the program's outputs with numpy and the
standard library only, so a change to the program's own verification code
cannot hide a wrong answer from the benchmark.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

MODE_ORDER = ("soft", "coloring", "none")
_TOL = 1e-9


def slot_lower_bound(value_upper: float) -> int:
    """Fewest integer slots any schedule can have: ceil(1 / value_upper)."""
    return math.ceil(1.0 / value_upper - _TOL)


def _cells(records) -> dict:
    """Records keyed by (run_id, beta), then by mode."""
    cells: dict = {}
    for rec in records:
        beta = None if math.isnan(rec.beta_db) else rec.beta_db
        cells.setdefault((rec.run_id, beta), {})[rec.mode] = rec
    return cells


def check_records(records, expected: int, runs: int) -> dict[int, str]:
    """Failed run ids with the first problem found in each.

    A record count other than ``expected`` fails every run, since the sweep
    then no longer covers runs x betas x modes.
    """
    if len(records) != expected:
        return {rid: f"{len(records)} records, expected {expected}" for rid in range(runs)}
    failed: dict[int, str] = {}
    for (rid, beta), modes in _cells(records).items():
        soft, coloring, none = (modes.get(m) for m in MODE_ORDER)
        problem = None
        if soft is not None and not soft.value_lower <= soft.value_upper:
            problem = f"value_lower {soft.value_lower} > value_upper {soft.value_upper}"
        elif soft is not None and slot_lower_bound(soft.value_upper) > soft.slots:
            problem = f"soft slots {soft.slots} below ceil(1/value_upper)"
        elif coloring is not None and none is not None and coloring.slots > none.slots:
            problem = f"coloring slots {coloring.slots} exceed no-reuse slots {none.slots}"
        if problem:
            failed.setdefault(rid, f"beta {beta}: {problem}")
    return failed


def quality(records) -> dict[str, float]:
    """Answer-quality means over a sweep's records.

    ``<mode>_slots_per_packet`` is the paper's y-axis for each mode run.
    ``<mode>_vs_no_reuse`` is the mean over (run, beta) of that mode's slots
    over the no-reuse slot count of the same instance; normalising by the
    instance's own demand keeps it steady across seeds. ``slots_vs_no_reuse``
    is for the best scheduler the sweep runs: soft when present, else
    coloring. The game metrics appear only when the sweep runs ``soft``.
    """
    cells = list(_cells(records).values())
    modes = [m for m in MODE_ORDER if m in cells[0]]
    out = {}
    for m in modes:
        out[f"{m}_slots_per_packet"] = statistics.fmean(c[m].avg_slots_per_packet for c in cells)
        if m != "none" and "none" in modes:
            out[f"{m}_vs_no_reuse"] = statistics.fmean(c[m].slots / c["none"].slots for c in cells)
    if "none" in modes and modes[0] != "none":
        out["slots_vs_no_reuse"] = out[f"{modes[0]}_vs_no_reuse"]

    if "soft" in modes:
        soft = [c["soft"] for c in cells]
        out["gap_slots_mean"] = statistics.fmean(
            r.slots - slot_lower_bound(r.value_upper) for r in soft)
        out["bracket_rel_mean"] = statistics.fmean(
            (r.value_upper - r.value_lower) / r.value_upper for r in soft)
        if "coloring" in modes:
            out["gain_vs_coloring"] = statistics.fmean(
                1.0 - c["soft"].slots / c["coloring"].slots for c in cells)
    return out


def certificate_violation(payoff, sol) -> str | None:
    """Whether FP's strategies fail to certify its own value bracket."""
    h = payoff.h
    worst_row = float((h @ sol.y).min())
    best_col = float((sol.x @ h).max())
    if worst_row < sol.value_lower - _TOL:
        return f"min(H @ y) = {worst_row!r} below value_lower {sol.value_lower!r}"
    if best_col > sol.value_upper + _TOL:
        return f"max(x @ H) = {best_col!r} above value_upper {sol.value_upper!r}"
    return None


def schedule_violation(schedule, graph, rates) -> str | None:
    """Whether a schedule fires two conflicting links together or underserves one."""
    counts = np.bincount(np.asarray(schedule.slots, dtype=int),
                         minlength=len(schedule.components))
    served = np.zeros(len(rates.rates), dtype=int)
    for j in np.flatnonzero(counts):
        members = np.asarray(schedule.components[j].members)
        block = graph.adjacency[np.ix_(members, members)]
        if (block & ~np.eye(len(members), dtype=bool)).any():
            return f"component {j} fires conflicting links"
        served[members] += counts[j]
    short = np.flatnonzero(served < np.asarray(rates.rates))
    if short.size:
        i = int(short[0])
        return f"link {i} served {int(served[i])} times but requires {rates.rates[i]}"
    return None
