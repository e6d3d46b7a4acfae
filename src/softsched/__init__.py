"""Soft-coloring TDMA link scheduler for wireless ad-hoc networks.

Pipeline: random topology -> minimum-power routing -> link conflict graph ->
component enumeration -> link-vs-component matrix game -> integer slot
schedule, with greedy coloring and no-scheduling baselines alongside.
"""

from .coloring import Coloring, coloring_slots, greedy_color, no_schedule_slots
from .components import (
    Component,
    ResourceLimitError,
    enumerate_maximal,
)
from .conflict import (
    ConflictGraph,
    ConflictParams,
    build_conflict_graph,
    load_conflict_fixture,
)
from .game import (
    FpState,
    GameSolution,
    PayoffMatrix,
    Schedule,
    ScheduleCheck,
    SolverConfig,
    build_payoff,
    extract_schedule,
    fp_solve,
    lp_oracle,
    supported_rates,
    verify_schedule,
)
from .harness import (
    ExperimentConfig,
    Fixture,
    ResultRecord,
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
    load_topology_fixture,
    route_sessions,
)

__version__ = "0.1.0"
