"""The Database facade: catalog + UDF registry + planner + executor.

This is the engine users (and QFusor) talk to.  It resolves statements,
runs SELECTs through the chosen executor, and applies DML — including DML
whose expressions contain UDFs (paper section 4.2.5).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CatalogError, ExecutionError, PlanError
from ..obs import OBS
from ..obs import tracer as obs_tracer
from ..sql import ast_nodes as ast
from ..sql.parser import parse
from ..storage.catalog import Catalog, Delta
from ..storage.column import Column
from ..storage.table import Table
from ..types import SqlType
from ..udf.registry import UdfRegistry
from ..udf.state import StatsStore
from .expressions import FunctionResolver, VectorEvaluator
from .explain import explain_text
from .optimizer import NativeOptimizer, OptimizerProfile
from .plan import Field
from .planner import PlannedQuery, Planner

__all__ = ["Database"]


class Database:
    """An embedded SQL database with pluggable execution model.

    Parameters
    ----------
    name:
        Connection label (used in messages and EXPLAIN output).
    execution_model:
        ``"vector"`` (MonetDB-style operator-at-a-time, the default) or
        ``"tuple"`` (SQLite-style tuple-at-a-time pipelining).
    optimizer_profile:
        Native-optimizer behaviour switches; see
        :class:`~repro.engine.optimizer.OptimizerProfile`.
    stats:
        Optional shared :class:`~repro.udf.state.StatsStore` so several
        connections can pool UDF statistics.
    """

    def __init__(
        self,
        name: str = "minidb",
        *,
        execution_model: str = "vector",
        optimizer_profile: Optional[OptimizerProfile] = None,
        stats: Optional[StatsStore] = None,
        channel: Optional[Any] = None,
    ):
        if execution_model not in ("vector", "tuple"):
            raise ValueError(f"unknown execution model {execution_model!r}")
        self.name = name
        self.execution_model = execution_model
        self.catalog = Catalog()
        self.registry = UdfRegistry(stats, channel)
        self.resolver = FunctionResolver(self.registry)
        self.planner = Planner(self.catalog, self.resolver)
        self.optimizer = NativeOptimizer(self.catalog, self.resolver, optimizer_profile)
        self._temp_tables: List[str] = []
        self.own_scheduler = None

    @property
    def columnar(self):
        """The columnar-plane policy, shared with the UDF registry
        (``None`` = classic paths everywhere)."""
        return self.registry.columnar

    @property
    def scheduler(self):
        """Who shards the vector executor's row-parallel operators: the
        columnar policy's morsel scheduler while the plane is on, else
        the engine's own (dbX's threaded one; ``None`` = never shard)."""
        policy = self.columnar
        if policy is not None:
            return policy.scheduler
        return self.own_scheduler

    # ------------------------------------------------------------------
    # Schema / UDF management
    # ------------------------------------------------------------------

    def register_table(self, table: Table, *, replace: bool = False) -> None:
        """Add a table to the catalog."""
        self.catalog.register(table, replace=replace)

    def register_udf(
        self,
        udf: Any,
        *,
        replace: bool = False,
        deterministic: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> None:
        """Register a decorated UDF (see :mod:`repro.udf.decorators`)."""
        self.registry.register(
            udf, replace=replace, deterministic=deterministic, version=version
        )

    def register_udfs(self, udfs: Sequence[Any], *, replace: bool = False) -> None:
        for udf in udfs:
            self.register_udf(udf, replace=replace)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute(self, sql: Union[str, ast.Statement]) -> Table:
        """Parse, plan, optimize, and execute one SQL statement."""
        if OBS.tracing and isinstance(sql, str):
            with obs_tracer.span("parse"):
                statement = parse(sql)
        else:
            statement = parse(sql) if isinstance(sql, str) else sql
        if isinstance(statement, ast.Explain):
            planned = self.plan(statement.statement)
            text = explain_text(planned)
            return Table(
                "explain",
                [Column("plan", SqlType.TEXT, text.split("\n"), validate=False)],
            )
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._execute_create(statement)
        if isinstance(statement, ast.DropTable):
            return self._execute_drop(statement)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def plan(self, sql: Union[str, ast.Statement]) -> PlannedQuery:
        """Plan and natively optimize a SELECT (the EXPLAIN product)."""
        statement = parse(sql) if isinstance(sql, str) else sql
        if isinstance(statement, ast.Explain):
            statement = statement.statement
        if not isinstance(statement, ast.Select):
            raise PlanError("only SELECT statements can be planned")
        # Skip the span when already inside a "plan" span (the QFusor
        # EXPLAIN probe wraps this call) so stage totals aren't doubled.
        sp = None
        if OBS.tracing:
            cur = obs_tracer.current_span()
            if cur is None or cur.name != "plan":
                sp = obs_tracer.span_start("plan")
        planned = self.planner.plan_select(statement)
        optimized = self.optimizer.optimize(planned)
        if sp is not None:
            obs_tracer.span_end(sp)
        return optimized

    def explain(self, sql: Union[str, ast.Statement]) -> str:
        """The EXPLAIN text for a statement."""
        return explain_text(self.plan(sql))

    def _execute_select(self, statement: ast.Select) -> Table:
        planned = self.plan(statement)
        executor = self._make_executor()
        return executor.execute(planned)

    def _make_executor(self):
        if self.execution_model == "vector":
            from .executor_vector import VectorExecutor

            return VectorExecutor(self.catalog, self.resolver, self.scheduler)
        from .executor_tuple import TupleExecutor

        return TupleExecutor(self.catalog, self.resolver)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _table_fields(self, table: Table) -> List[Field]:
        return [
            Field(name, sql_type, table.name)
            for name, sql_type in table.schema
        ]

    def _write(self, name: str, compute: Callable[[Table], Tuple[Delta, int]]) -> Table:
        """Run one DML statement as a row delta against ``name``, computed
        again whenever another writer replaced the table meanwhile."""
        while True:
            table = self.catalog.get(name)
            delta, count = compute(table)
            if self.catalog.write(name, delta, base=table):
                return _rowcount_table(count)

    def _matching_positions(self, table: Table, where: Optional[ast.Expr]):
        """The evaluator over ``table`` and the row positions ``where``
        selects (every row without one)."""
        evaluator = VectorEvaluator(self._table_fields(table), self.resolver)
        if where is None:
            return evaluator, np.arange(table.num_rows)
        mask = evaluator.predicate_mask(where, list(table.columns), table.num_rows)
        return evaluator, np.flatnonzero(mask)

    def _execute_insert(self, statement: ast.Insert) -> Table:
        def compute(table: Table) -> Tuple[Delta, int]:
            target_names = list(statement.columns) or list(table.schema.names)
            positions = [table.schema.position(n) for n in target_names]
            if statement.query is not None:
                source = self._execute_select(statement.query)
                rows = list(zip(*(col.to_list() for col in source.columns)))
                widths = [source.num_columns]
            else:
                evaluator = VectorEvaluator([], self.resolver)
                rows = [
                    [evaluator.evaluate(expr, [], 1)[0] for expr in value_row]
                    for value_row in statement.values
                ]
                widths = [len(row) for row in rows]
            for width in widths:
                if width != len(positions):
                    raise ExecutionError(
                        f"INSERT arity mismatch: {width} values for "
                        f"{len(positions)} columns"
                    )
            given = dict(zip(positions, zip(*rows)))
            new = {
                i: Column(col.name, col.sql_type, given.get(i, [None] * len(rows)))
                for i, col in enumerate(table.columns)
            }
            return Delta("insert", columns=new), len(rows)

        return self._write(statement.table, compute)

    def _execute_update(self, statement: ast.Update) -> Table:
        def compute(table: Table) -> Tuple[Delta, int]:
            # WHERE first; SET (and any UDF in it) then sees only the
            # selected rows.
            evaluator, positions = self._matching_positions(table, statement.where)
            selected = [col.take(positions) for col in table.columns]
            new = {}
            for column_name, expr in statement.assignments:
                position = table.schema.position(column_name)
                target = table.columns[position]
                computed = evaluator.evaluate(expr, selected, len(positions))
                new[position] = Column(target.name, target.sql_type, computed.to_list())
            return Delta("update", positions, new), len(positions)

        return self._write(statement.table, compute)

    def _execute_delete(self, statement: ast.Delete) -> Table:
        def compute(table: Table) -> Tuple[Delta, int]:
            _, positions = self._matching_positions(table, statement.where)
            return Delta("delete", positions), len(positions)

        return self._write(statement.table, compute)

    def _execute_create(self, statement: ast.CreateTableAs) -> Table:
        result = self._execute_select(statement.query)
        created = result.renamed(statement.name)
        self.catalog.register(created, replace=True)
        if statement.temporary:
            self._temp_tables.append(statement.name)
        return _rowcount_table(created.num_rows)

    def _execute_drop(self, statement: ast.DropTable) -> Table:
        try:
            self.catalog.drop(statement.name)
        except CatalogError:
            if not statement.if_exists:
                raise
        return _rowcount_table(0)


def _rowcount_table(count: int) -> Table:
    return Table("rowcount", [Column("rows", SqlType.INT, [count], validate=False)])
