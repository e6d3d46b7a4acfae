"""Soft-coloring TDMA link scheduler for wireless ad-hoc networks.

Pipeline: random topology -> minimum-power routing -> link conflict graph ->
component enumeration -> link-vs-component matrix game -> integer slot
schedule, with greedy coloring and no-scheduling baselines alongside.
"""

from .coloring import (
    Coloring,
    coloring_slots,
    first_fit_stack,
    greedy_color,
    no_schedule_slots,
)
from .components import (
    Component,
    ResourceLimitError,
    enumerate_maximal,
)
from .conflict import (
    ConflictGraph,
    build_conflict_graph,
    conflict_stack,
    link_powers,
)
from .game import (
    FpState,
    GameSolution,
    PayoffMatrix,
    Schedule,
    ScheduleCheck,
    SolverConfig,
    build_payoff,
    certified_schedule,
    extract_schedule,
    finish_exact,
    fp_solve,
    verify_schedule,
)
from .harness import (
    ExperimentConfig,
    Fixture,
    ResultRecord,
    RunError,
    SweepRow,
    load_fixture,
    run_instance,
    run_sweep,
    write_detail,
    write_results,
)
from .topology import (
    Link,
    Node,
    PropagationParams,
    RateVector,
    Session,
    accumulate_rates,
    generate_nodes,
    route_sessions,
)

__version__ = "0.1.0"
