"""DuckDB-like adapter: vectorized execution, eager intermediate
materialization around UDFs, no UDF JIT of its own.

Structurally identical to MiniDB (both are vectorized column stores);
the profiles differ in which QFusor features benchmarks attach to them
and in their dialect entries.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..engine.database import Database
from ..engine.optimizer import OptimizerProfile
from ..engine.planner import PlannedQuery
from ..sql import ast_nodes as ast
from ..storage.table import Table
from ..udf.state import StatsStore
from .base import EngineAdapter

__all__ = ["DuckDbLikeAdapter"]


class DuckDbLikeAdapter(EngineAdapter):
    name = "duckdb"
    supports_plan_dispatch = True
    in_process = True

    def __init__(
        self,
        *,
        stats: Optional[StatsStore] = None,
        columnar: bool = False,
        morsel_size: int = 4096,
    ):
        self.database = Database(
            "duckdb_like",
            execution_model="vector",
            optimizer_profile=OptimizerProfile(
                name="duckdb_like", push_filter_below_udf_project=True
            ),
            stats=stats,
        )
        if columnar:
            self.enable_columnar(morsel_size=morsel_size)

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
