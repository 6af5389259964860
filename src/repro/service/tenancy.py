"""Tenant sessions: isolated namespaces, quotas, and clamped contexts.

Each tenant owns a **whole vertical slice** of the stack: its own
adapter instance (hence its own :class:`~repro.udf.registry.UdfRegistry`
namespace, circuit-breaker board, and stats store), its own
:class:`~repro.core.qfusor.QFusor` (hence its own plan/memo/result cache
tiers, additionally key-scoped by tenant id via ``config.cache_scope``),
and — when process isolation is on — its own
:class:`~repro.resilience.workers.WorkerPool` bulkhead, so one tenant's
crashing UDFs burn only that tenant's restart budget.

Isolation here is *structural*, not filtered: there is no shared
registry to filter by tenant, so a leak would require a bug to
materialize an object bridge, not merely miss a predicate.

:class:`TenantQuota` is the admission-facing contract: scheduling weight
and priority lane, concurrency/pending caps, and *ceilings* that clamp
whatever deadline or row budget the client asks for — a tenant cannot
out-ask its quota.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..core import QFusor, QFusorConfig
from ..resilience.governor import QueryContext

__all__ = ["TenantQuota", "TenantSession", "LANES"]

#: Priority lanes in dispatch order: the scheduler always drains a
#: higher lane's queues before looking at a lower one.
LANES = ("high", "normal", "low")


@dataclass
class TenantQuota:
    """Per-tenant fairness weight, lane, and resource ceilings."""

    #: Deficit-weighted round-robin share relative to other tenants in
    #: the same lane (2.0 drains roughly twice as fast as 1.0).
    weight: float = 1.0
    #: Priority lane: "high" | "normal" | "low".
    lane: str = "normal"
    #: Max queries of this tenant executing at once (None: only the
    #: service-wide capacity limits it).
    max_concurrent: Optional[int] = None
    #: Max queries of this tenant waiting in the queue before new
    #: arrivals shed immediately (None: only global watermarks apply).
    max_pending: Optional[int] = None
    #: Hard ceiling on any requested per-query deadline (seconds).
    deadline_ceiling_s: Optional[float] = None
    #: Hard ceiling on any requested per-query row budget.
    row_budget_ceiling: Optional[int] = None

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"quota weight must be positive: {self.weight}")
        if self.lane not in LANES:
            raise ValueError(
                f"unknown lane {self.lane!r}; expected one of {LANES}"
            )

    def clamp_timeout(self, timeout_s: Optional[float]) -> Optional[float]:
        ceiling = self.deadline_ceiling_s
        if ceiling is None:
            return timeout_s
        if timeout_s is None:
            return ceiling
        return min(timeout_s, ceiling)

    def clamp_row_budget(self, budget: Optional[int]) -> Optional[int]:
        ceiling = self.row_budget_ceiling
        if ceiling is None:
            return budget
        if budget is None:
            return ceiling
        return min(budget, ceiling)


class TenantSession:
    """One tenant's isolated engine + optimizer + quota state."""

    def __init__(
        self,
        tenant_id: str,
        quota: TenantQuota,
        adapter: Any,
        config: Optional[QFusorConfig] = None,
    ):
        self.tenant_id = tenant_id
        self.quota = quota
        self.adapter = adapter
        base = config if config is not None else QFusorConfig()
        #: The tenant's config: identical knobs, cache keys scoped to
        #: this tenant so even accidentally shared cache state is
        #: unreachable across sessions.
        self.config = base.ablated(cache_scope=tenant_id)
        self.qfusor = QFusor(adapter, self.config)
        self._lock = threading.Lock()
        self.queries = 0

    # -- registration (tenant-private namespace) -----------------------

    def register_table(self, table: Any, *, replace: bool = False) -> None:
        self.adapter.register_table(table, replace=replace)

    def register_udf(self, udf: Any, *, replace: bool = False,
                     deterministic: Optional[bool] = None,
                     version: Optional[int] = None) -> None:
        self.adapter.register_udf(
            udf, replace=replace, deterministic=deterministic,
            version=version,
        )

    def register_udfs(self, udfs: Sequence[Any], *,
                      replace: bool = False) -> None:
        for udf in udfs:
            self.register_udf(udf, replace=replace)

    # -- execution-context derivation ----------------------------------

    def make_context(
        self,
        timeout_s: Optional[float] = None,
        row_budget: Optional[int] = None,
    ) -> Optional[QueryContext]:
        """A governed context for one query, clamped to the quota.

        Returns None when neither the request, the quota, nor the config
        imposes any governance (the zero-overhead ungoverned path).
        """
        effective_timeout = self.quota.clamp_timeout(
            timeout_s if timeout_s is not None
            else self.config.query_timeout_s
        )
        effective_budget = self.quota.clamp_row_budget(
            row_budget if row_budget is not None
            else self.config.row_budget
        )
        batch_cap = self.config.udf_batch_timeout_s
        if (effective_timeout is None and effective_budget is None
                and batch_cap is None):
            return None
        return QueryContext(
            timeout_s=effective_timeout,
            udf_batch_timeout_s=batch_cap,
            row_budget=effective_budget,
            tenant=self.tenant_id,
        )

    def note_query(self) -> None:
        with self._lock:
            self.queries += 1

    def close(self) -> None:
        """Release the tenant's resources (worker pool, channels)."""
        close = getattr(self.adapter, "close", None)
        if close is not None:
            close()
