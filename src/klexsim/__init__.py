"""Self-stabilizing k-out-of-l exclusion on oriented trees: protocol,
deterministic network simulator, global monitors, and experiment CLI."""

from .appmodel import (
    AppState,
    RandomWorkload,
    ScenarioError,
    Workload,
    WorkloadEvent,
    parse_scenario,
)
from .monitor import (
    CensusReport,
    LivenessScenario,
    check_fairness,
    check_kl_liveness,
    check_safety,
    closure_regressions,
    stabilization_time,
    waiting_time_bound,
)
from .protocol import Ctrl, PrioT, ProcessState, PushT, ResT, counter_modulus
from .simnet import (
    Configuration,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulerError,
    SimParams,
    Simulator,
    Trace,
    default_timeout,
    traversal_allowance,
)
from .topology import TopologyError, TreeTopology, next_channel, parse_topology, virtual_ring

__all__ = [name for name in dir() if not name.startswith("_")]
