"""MiniDB adapter — the MonetDB-style deployment (vectorized, in-process).

This is QFusor's default host: operator-at-a-time vectorized execution
with materialized intermediates, in-process UDFs, and direct plan
dispatch (the MAL-style path 2 of section 5.4).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..engine.database import Database
from ..engine.optimizer import OptimizerProfile
from ..engine.planner import PlannedQuery
from ..sql import ast_nodes as ast
from ..sql.parser import parse
from ..storage.table import Table
from ..udf.state import StatsStore
from .base import EngineAdapter

__all__ = ["MiniDbAdapter"]


class MiniDbAdapter(EngineAdapter):
    name = "minidb"
    supports_plan_dispatch = True
    in_process = True

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        stats: Optional[StatsStore] = None,
        durability_dir: Optional[Any] = None,
        wal_enabled: bool = True,
        wal_fsync: bool = True,
        checkpoint_threshold: int = 4 << 20,
        checkpoint_interval_s: Optional[float] = None,
        columnar: bool = False,
        morsel_size: int = 4096,
    ):
        self.database = database or Database(
            "minidb",
            execution_model="vector",
            optimizer_profile=OptimizerProfile(
                name="minidb", push_filter_below_udf_project=True
            ),
            stats=stats,
        )
        if columnar:
            self.enable_columnar(morsel_size=morsel_size)
        if durability_dir is not None:
            # Recovers the directory's state into the catalog/registry
            # before the adapter serves anything, then WAL-logs writes.
            from ..storage.durability import attach_to_adapter

            attach_to_adapter(
                self,
                durability_dir,
                wal_enabled=wal_enabled,
                wal_fsync=wal_fsync,
                checkpoint_threshold=checkpoint_threshold,
                checkpoint_interval_s=checkpoint_interval_s,
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
