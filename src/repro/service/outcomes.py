"""Typed query outcomes for the multi-tenant service.

The service's core invariant is that **every submitted query terminates
with a typed outcome** — never a silent drop, never a bare stack trace
leaking scheduler internals.  :class:`QueryOutcome` is that terminal
value: it carries the result table on success, or the classified error
on any failure mode the stack can produce (shed, timeout, cancellation,
budget, quarantine, worker crash, user-code failure), plus
the timing split (queue wait vs. execution) the benchmarks and the
overload detector feed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import (
    BatchQuarantinedError,
    QueryBudgetExceededError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ServiceOverloadError,
    UdfExecutionError,
    WorkerError,
)

__all__ = ["QueryOutcome", "classify_error", "TERMINAL_STATUSES"]


#: Every status a finished query can carry; the chaos suite asserts each
#: observed outcome is one of these (the "typed outcome" invariant).
TERMINAL_STATUSES = frozenset({
    "ok",            # result table attached
    "shed",          # overload/admission refusal, retry_after attached
    "timeout",       # query deadline or per-batch UDF cap
    "cancelled",     # cancellation token fired
    "budget",        # row budget exhausted
    "quarantined",   # poisoned batch, quarantine policy "fail"
    "worker_failed", # worker pool gave up (restart budget, crash storm)
    "failed",        # user code / engine error
})


@dataclass
class QueryOutcome:
    """The terminal, typed result of one submitted query."""

    tenant: str
    sql: str
    status: str
    result: Optional[object] = None
    error: Optional[BaseException] = None
    #: Seconds spent queued before dispatch (0 when admitted directly).
    wait_s: float = 0.0
    #: Seconds spent executing once dispatched.
    exec_s: float = 0.0
    #: Backoff hint attached to shed outcomes.
    retry_after_s: Optional[float] = None
    #: Attempts consumed when a RetryPolicy drove the submission.
    attempts: int = 1

    def __post_init__(self):
        if self.status not in TERMINAL_STATUSES:
            raise ValueError(f"untyped outcome status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        return self.status == "shed"

    def raise_for_status(self):
        """Re-raise the captured error for callers preferring exceptions."""
        if self.status == "ok":
            return self.result
        if self.error is not None:
            raise self.error
        raise ReproError(
            f"query for tenant {self.tenant!r} ended {self.status!r}"
        )

    def __repr__(self) -> str:
        timing = f"wait={self.wait_s:.3g}s exec={self.exec_s:.3g}s"
        if self.status == "ok":
            rows = getattr(self.result, "num_rows", "?")
            return (f"<QueryOutcome ok tenant={self.tenant!r} "
                    f"rows={rows} {timing}>")
        return (f"<QueryOutcome {self.status} tenant={self.tenant!r} "
                f"{timing} error={self.error!r}>")


def classify_error(exc: BaseException) -> str:
    """Map an exception from the service stack onto a terminal status.

    Order matters: the specific governance/worker types come before
    their broader bases, and anything unrecognized is ``"failed"`` —
    classification itself can never raise, so a novel failure mode still
    terminates with a typed outcome.
    """
    if isinstance(exc, ServiceOverloadError):
        return "shed"
    if isinstance(exc, QueryTimeoutError):
        return "timeout"
    if isinstance(exc, QueryCancelledError):
        return "cancelled"
    if isinstance(exc, QueryBudgetExceededError):
        return "budget"
    if isinstance(exc, BatchQuarantinedError):
        return "quarantined"
    if isinstance(exc, WorkerError):
        return "worker_failed"
    if isinstance(exc, (UdfExecutionError, Exception)):
        return "failed"
    return "failed"
