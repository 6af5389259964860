"""Row-store adapter — the PostgreSQL-style deployment.

Tuple-at-a-time execution, out-of-process UDFs, and a native optimizer
that does *not* push filters below UDF-bearing projections — reproducing
the "3x more UDF invocations" behaviour of Figure 6a.

The out-of-process boundary has two fidelities, selected by
``isolation``:

``"channel"`` (default)
    Every UDF batch pays a pickle round trip through a
    :class:`~repro.resilience.channel.ResilientChannel` — the
    serialization cost of the boundary, in-process.
``"process"``
    UDF batches execute in real supervised worker processes
    (:class:`~repro.resilience.workers.WorkerPool`): the boundary gains
    real crash semantics — worker death, OOM kills, hang kills — on top
    of the serialization cost.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..engine.database import Database
from ..engine.optimizer import OptimizerProfile
from ..engine.planner import PlannedQuery
from ..sql import ast_nodes as ast
from ..storage.table import Table
from ..resilience.channel import ResilientChannel
from ..udf.state import StatsStore
from .base import EngineAdapter

__all__ = ["RowStoreAdapter"]


class RowStoreAdapter(EngineAdapter):
    name = "minidb_row"
    supports_plan_dispatch = True
    in_process = False

    def __init__(
        self,
        *,
        stats: Optional[StatsStore] = None,
        isolation: str = "channel",
        worker_pool_size: int = 2,
        worker_memory_limit_mb: Optional[int] = None,
        worker_max_restarts: int = 16,
        worker_max_batch_retries: int = 2,
        worker_quarantine_policy: str = "degrade",
        worker_batch_timeout_s: Optional[float] = None,
        durability_dir: Optional[Any] = None,
        wal_enabled: bool = True,
        wal_fsync: bool = True,
        checkpoint_threshold: int = 4 << 20,
        checkpoint_interval_s: Optional[float] = None,
        columnar: bool = False,
        morsel_size: int = 4096,
        buffer_transport: bool = False,
    ):
        if isolation not in ("channel", "process"):
            raise ValueError(f"unknown isolation mode {isolation!r}")
        self.isolation = isolation
        # The hardened pickle channel: per-batch timeout, bounded retries
        # with backoff, corruption detection with in-process degradation.
        self.channel = ResilientChannel()
        self.database = Database(
            "minidb_row",
            execution_model="tuple",
            optimizer_profile=OptimizerProfile(
                name="minidb_row", push_filter_below_udf_project=False
            ),
            stats=stats,
            channel=self.channel,
        )
        if durability_dir is not None:
            from ..storage.durability import attach_to_adapter

            attach_to_adapter(
                self,
                durability_dir,
                wal_enabled=wal_enabled,
                wal_fsync=wal_fsync,
                checkpoint_threshold=checkpoint_threshold,
                checkpoint_interval_s=checkpoint_interval_s,
            )
        if isolation == "process":
            self.enable_process_isolation(
                pool_size=worker_pool_size,
                memory_limit_mb=worker_memory_limit_mb,
                max_restarts=worker_max_restarts,
                max_batch_retries=worker_max_batch_retries,
                quarantine_policy=worker_quarantine_policy,
                batch_timeout_s=worker_batch_timeout_s,
            )
        if columnar or buffer_transport:
            # On the row store the columnar plane mainly buys buffer-aware
            # transport: the modeled channel / worker pipe ships typed
            # frames instead of object-list pickles.  The tuple executor
            # itself stays row-at-a-time.
            self.enable_columnar(
                enabled=columnar,
                morsel_size=morsel_size,
                buffer_transport=buffer_transport,
            )

    @property
    def registry(self):
        return self.database.registry

    @property
    def resolver(self):
        return self.database.resolver

    def register_table(self, table: Table, *, replace: bool = False) -> None:
        self.database.register_table(table, replace=replace)

    def register_udf(
        self,
        udf: Any,
        *,
        replace: bool = False,
        deterministic: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> None:
        self.database.register_udf(
            udf, replace=replace, deterministic=deterministic, version=version
        )

    def explain_plan(self, statement: Union[str, ast.Statement]) -> PlannedQuery:
        return self.database.plan(statement)

    def _execute_plan(self, planned: PlannedQuery) -> Table:
        executor = self.database._make_executor()
        return executor.execute(planned)

    def _execute_sql(self, statement: Union[str, ast.Statement]) -> Table:
        return self.database.execute(statement)
