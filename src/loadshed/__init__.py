"""Distributed priority-based load shedding on discrete load sets.

Library plus CLI simulator: cumulative criticality functions and their
Lipschitz surrogates, centralized verification oracles, time-varying
communication graphs with doubly-stochastic mixing, the synchronous
distributed threshold protocol with dynamic min-consensus, and
executable checks of the assumptions its root-finding recursion rests on.
"""

from .criticality import (
    Ccf,
    CriticalLoad,
    Region,
    SurrogateCcf,
    build_ccf,
    eval_ccf,
    eval_surrogate,
    min_gap,
    shed_decision,
)
from .oracle import (
    ContinuousSolution,
    InfeasibleError,
    SheddingSolution,
    continuous_solution,
    exact_z_hat,
    exact_z_star,
    greedy_shed_set,
)
from .netgraph import (
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    check_window_connectivity,
)
from .protocol import (
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    RunTrace,
    StepSchedule,
    TraceEstimator,
    run_protocol,
)
from .rootfind import AssumptionCertificate
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    SummaryReport,
    dump_scenario,
    emit_trace,
    generate_scenario,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"
