"""Parallel adapter — the commercial "dbX" profile.

The vector executor with a threaded morsel scheduler, but no columnar
kernels, no UDF JIT and no fusion of its own: UDFs run through the plain
wrapper path with engine<->UDF context switches, matching the paper's
account of dbX ("strong parallelism, but its lack of UDF JIT
compilation and context switches between relational and UDF operators
limit performance").
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..columnar.morsel import MorselScheduler
from ..engine.database import Database
from ..engine.optimizer import OptimizerProfile
from ..engine.planner import PlannedQuery
from ..sql import ast_nodes as ast
from ..storage.table import Table
from ..udf.state import StatsStore
from .base import EngineAdapter

__all__ = ["ParallelDbAdapter"]


class ParallelDbAdapter(EngineAdapter):
    name = "dbx"
    supports_plan_dispatch = True
    in_process = True

    def __init__(
        self,
        threads: int = 4,
        *,
        stats: Optional[StatsStore] = None,
        columnar: bool = False,
        morsel_size: int = 4096,
    ):
        self.database = Database(
            "dbx",
            execution_model="vector",
            optimizer_profile=OptimizerProfile(
                name="dbx", push_filter_below_udf_project=True
            ),
            stats=stats,
        )
        # Threads without the plane: the registry's ``columnar`` stays
        # ``None``, so UDFs keep their classic per-value crossings.
        self.database.own_scheduler = MorselScheduler(
            threads=threads, morsel_size=morsel_size
        )
        if columnar:
            self.enable_columnar(morsel_size=morsel_size, threads=threads)

    @property
    def threads(self) -> int:
        return self.database.scheduler.threads

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
        return self.database._make_executor().execute(planned)

    def _execute_sql(self, statement: Union[str, ast.Statement]) -> Table:
        return self.database.execute(statement)
