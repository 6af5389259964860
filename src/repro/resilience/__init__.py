"""Runtime-fault layer for fused execution.

Fusion is only transparent if a fused pipeline never changes what the
caller observes — including under failure.  This package supplies the
three mechanisms QFusor uses to keep that promise at runtime:

* :mod:`~repro.resilience.runtime` — per-query resilience context, the
  row-level exception policies applied inside JIT-generated batch
  wrappers, and the fault-injection hook the testing harness arms;
* :mod:`~repro.resilience.blocklist` — the per-section fusion blocklist
  consulted by :mod:`repro.core.heuristics` after a de-optimization;
* :mod:`~repro.resilience.governor` — query lifecycle governance:
  deadlines, cooperative cancellation checkpoints, and the runaway-UDF
  watchdog;
* :mod:`~repro.resilience.breaker` — per-UDF sliding-window circuit
  breakers (error rate + latency percentiles);
* :mod:`~repro.resilience.workers` — the supervised process-isolated
  UDF worker pool (heartbeats, restart budgets, memory caps, hang
  kills, poisoned-batch quarantine).  It is the one place a UDF
  boundary really fails; the row store's modeled pickle channel
  (:class:`~repro.udf.registry.ProcessChannel`) has no failure
  handling because it has no failures.
"""

from .blocklist import FusionBlocklist
from .breaker import BreakerBoard, CircuitBreaker
from .governor import (
    WATCHDOG,
    CancellationToken,
    QueryContext,
    Watchdog,
    checkpoint,
    cooperative_sleep,
    govern,
    guarded_iter,
    udf_batch_guard,
)
from .workers import (
    WorkerIncident,
    WorkerPool,
    WorkerQuarantineWarning,
    active_worker_pids,
    shutdown_all_pools,
)
from .runtime import (
    FAULTS,
    DeoptEvent,
    ResilienceContext,
    RowEvent,
    activate,
    active,
    handle_expand_row_error,
    handle_scalar_row_error,
    handle_value_error,
    policy,
)

__all__ = [
    "FAULTS",
    "WATCHDOG",
    "BreakerBoard",
    "CancellationToken",
    "CircuitBreaker",
    "DeoptEvent",
    "FusionBlocklist",
    "QueryContext",
    "ResilienceContext",
    "RowEvent",
    "Watchdog",
    "WorkerIncident",
    "WorkerPool",
    "WorkerQuarantineWarning",
    "activate",
    "active",
    "active_worker_pids",
    "checkpoint",
    "cooperative_sleep",
    "govern",
    "guarded_iter",
    "handle_expand_row_error",
    "handle_scalar_row_error",
    "handle_value_error",
    "policy",
    "shutdown_all_pools",
    "udf_batch_guard",
]
