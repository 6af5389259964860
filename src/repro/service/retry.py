"""Client-side retry with backoff, retry-after hints, and hard budgets.

A shed query is an *invitation to retry later*, but naive clients retry
immediately and synchronize into retry storms that re-trigger the very
overload that shed them.  :class:`RetryPolicy` is the well-behaved
client: exponential backoff with jitter, ``retry_after_s`` hints from
:class:`~repro.errors.ServiceOverloadError` honored as a floor, and two
hard caps — attempt count and total wall-clock budget — so a client can
never hammer, and never hang, on a persistently overloaded service.

Backoff sleeps run through
:func:`~repro.resilience.governor.cooperative_sleep`, so a retry loop
inside a governed scope stays cancellable between attempts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import RetryBudgetExhaustedError, ServiceOverloadError
from ..resilience.governor import cooperative_sleep
from .outcomes import QueryOutcome

__all__ = ["RetryPolicy"]

#: Exception types worth retrying: refusals that say "come back later".
#: Everything else (timeouts, user errors, quarantines) is not transient
#: from the client's seat and re-raising immediately is correct.
RETRYABLE = (ServiceOverloadError,)


@dataclass
class RetryPolicy:
    """Bounded retry loop for shed/overload refusals."""

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    #: Total wall-clock cap across all attempts and sleeps; None: only
    #: ``max_attempts`` bounds the loop.
    budget_s: Optional[float] = None
    #: Honor ServiceOverloadError.retry_after_s as a backoff floor.
    honor_retry_after: bool = True
    #: +/- fraction of each delay randomized to decorrelate clients.
    jitter: float = 0.25

    def _delay(self, attempt: int, exc: Optional[BaseException]) -> float:
        delay = min(
            self.max_backoff_s,
            self.base_backoff_s * (self.multiplier ** attempt),
        )
        if self.jitter:
            delay *= 1.0 + random.uniform(-self.jitter, self.jitter)
        if self.honor_retry_after and exc is not None:
            hint = getattr(exc, "retry_after_s", None)
            if hint is not None:
                delay = max(delay, hint)
        return delay

    def _out_of_budget(self, started: float, next_delay: float) -> bool:
        if self.budget_s is None:
            return False
        return (time.monotonic() - started) + next_delay >= self.budget_s

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` until success, a non-retryable error, or budget.

        ``fn`` may signal "shed" either way the service API does: by
        raising a retryable exception, or by returning a
        :class:`QueryOutcome` with ``status == "shed"`` (the outcome
        gains ``attempts`` bookkeeping).  Exhausting the attempt count
        or wall-clock budget raises
        :class:`~repro.errors.RetryBudgetExhaustedError` for the
        exception style, or returns the final shed outcome for the
        outcome style — typed either way.
        """
        started = time.monotonic()
        last_exc: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            try:
                result = fn()
            except RETRYABLE as exc:
                last_exc = exc
                delay = self._delay(attempt, exc)
                if (attempt + 1 >= self.max_attempts
                        or self._out_of_budget(started, delay)):
                    raise RetryBudgetExhaustedError(
                        attempts=attempt + 1,
                        elapsed_s=time.monotonic() - started,
                        last_error=exc,
                    ) from exc
                cooperative_sleep(delay)
                continue
            if isinstance(result, QueryOutcome):
                result.attempts = attempt + 1
                if result.shed:
                    delay = self._delay(attempt, result.error)
                    if (attempt + 1 >= self.max_attempts
                            or self._out_of_budget(started, delay)):
                        return result
                    cooperative_sleep(delay)
                    continue
            return result
        raise RetryBudgetExhaustedError(  # pragma: no cover - loop exits above
            attempts=self.max_attempts,
            elapsed_s=time.monotonic() - started,
            last_error=last_exc,
        )

    def execute(self, service: Any, tenant_id: str, sql: str,
                **kwargs: Any) -> QueryOutcome:
        """Convenience: retry ``service.execute(tenant_id, sql, ...)``."""
        return self.call(lambda: service.execute(tenant_id, sql, **kwargs))
