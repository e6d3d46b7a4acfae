#!/usr/bin/env python3
"""Walk the canonical three-link instance through the whole pipeline.

Link 0 can fire together with link 1 or link 2, but links 1 and 2 conflict.
With demands (3, 1, 2) every hard coloring needs at least 4 slots, while
mixing the two maximal components hits the fractional optimum of 3. This is
the smallest instance where soft coloring strictly beats hard coloring.
"""

import numpy as np

from softsched import (
    ConflictGraph,
    RateVector,
    SolverConfig,
    build_payoff,
    coloring_slots,
    enumerate_maximal,
    extract_schedule,
    finish_exact,
    fp_solve,
    greedy_color,
    no_schedule_slots,
    verify_schedule,
)


def main():
    g = ConflictGraph.from_pairs(3, [(1, 2)])
    rates = RateVector((3, 1, 2))

    print("conflict edges:", sorted(g.edge_set()))
    comps = enumerate_maximal(g)
    print("maximal components:", [c.members for c in comps])

    payoff = build_payoff(comps, rates)
    print("\npayoff matrix (rows = links, columns = components):")
    print(payoff.h)

    sol = fp_solve(payoff, SolverConfig(delta=1e-6))
    print(f"\nfictitious play: {sol.iterations} iterations, "
          f"bracket [{sol.value_lower:.8f}, {sol.value_upper:.8f}]")
    print("empirical usage:", np.round(sol.y, 6))

    exact = finish_exact(payoff)  # from the payoff alone
    value, y = exact.value_lower, exact.y
    print(f"\nexact game value {value:.6f} -> fractional schedule length {1 / value:.3f}")
    print("exact component usage:", y)
    print("per-link served fraction:", payoff.h @ y)

    sched = extract_schedule(comps, rates, y, value)
    print(f"\nsoft schedule: {sched.length} slots")
    for slot, comp_idx in enumerate(sched.slots):
        print(f"  slot {slot}: activate links {comps[comp_idx].members}")
    print("feasible:", bool(verify_schedule(sched, g, rates)))

    for order in ([0, 1, 2], [0, 2, 1]):
        c = greedy_color(g, order)
        print(f"\ngreedy coloring, order {order}: classes {c.classes} "
              f"-> {coloring_slots(c.colors, rates)} slots")
    print("no scheduling:", no_schedule_slots(rates), "slots")


if __name__ == "__main__":
    main()
