"""Deterministic testing utilities (fault injection, crash harness)."""

from .crash import (
    RoundVerdict,
    build_workload,
    run_inprocess_crash,
    run_subprocess_crash,
)
from .failover import run_inprocess_failover, run_subprocess_failover
from .faults import (
    DURABILITY_STAGES,
    REPLICATION_STAGES,
    FaultInjector,
    InjectedFault,
    PoisonedTraceError,
    inject,
    poison_traces,
)

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "PoisonedTraceError",
    "DURABILITY_STAGES",
    "REPLICATION_STAGES",
    "inject",
    "poison_traces",
    "RoundVerdict",
    "build_workload",
    "run_inprocess_crash",
    "run_subprocess_crash",
    "run_inprocess_failover",
    "run_subprocess_failover",
]
