"""Real SQLite integration through Python's stdlib ``sqlite3``.

This adapter demonstrates genuine third-party pluggability: tables are
loaded into an in-memory SQLite database, UDFs are registered through
``sqlite3``'s ``create_function`` / ``create_aggregate`` C-API bridge,
and QFusor accelerates queries through the SQL-rewrite path (section
5.4, path 1) since SQLite exposes no structured plan to rewrite.

Scalar and aggregate UDFs are supported (SQLite has no table-valued
Python UDFs); complex (JSON) values cross the boundary serialized, as in
the main engine.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Callable, List, Optional, Sequence, Union

from ..errors import (
    ExecutionError,
    QueryInterrupt,
    UdfExecutionError,
    UdfRegistrationError,
)
from ..obs import METRICS, OBS
from ..resilience import governor as _governor
from ..resilience import runtime as _resilience
from ..sql import ast_nodes as ast
from ..sql.printer import to_sql
from ..storage import serde
from ..storage.table import Table
from ..types import SqlType
from ..udf.definition import UdfDefinition, UdfKind
from ..udf.registry import UdfRegistry
from ..udf.state import StatsStore
from .base import EngineAdapter

__all__ = ["SqliteAdapter"]

_SQLITE_DECL = {
    SqlType.INT: "INTEGER",
    SqlType.FLOAT: "REAL",
    SqlType.TEXT: "TEXT",
    SqlType.BOOL: "INTEGER",
    SqlType.JSON: "TEXT",
}


class SqliteAdapter(EngineAdapter):
    name = "sqlite"
    supports_plan_dispatch = False  # QFusor uses the SQL-rewrite path
    translate_dialect = "sqlite"  # C-style %, ASCII-only case folding

    def __init__(self, *, stats: Optional[StatsStore] = None):
        from ..storage.catalog import Catalog

        self.connection = sqlite3.connect(":memory:")
        self._registry = UdfRegistry(stats)
        self._schemas = {}
        #: sqlite3 masks Python exceptions from UDF bridges behind a
        #: generic ``OperationalError``; bridges stash the real error
        #: (a :class:`UdfExecutionError` or a governance
        #: :class:`QueryInterrupt`) here so ``execute_sql`` can re-raise
        #: it with the UDF name and offending value intact.
        self._pending_error: Optional[BaseException] = None
        #: Schema-only catalog so QFusor's SQL-rewrite path can resolve
        #: column types without round-tripping to SQLite.
        self._catalog = Catalog()

    @property
    def registry(self) -> UdfRegistry:
        return self._registry

    @property
    def catalog(self):
        return self._catalog

    def row_count(self, table: str) -> Optional[int]:
        return None  # the catalog holds schemas only; rows live in sqlite

    @property
    def resolver(self):
        from ..engine.expressions import FunctionResolver

        return FunctionResolver(self._registry)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def register_table(self, table: Table, *, replace: bool = False) -> None:
        columns = ", ".join(
            f'"{name}" {_SQLITE_DECL[t]}' for name, t in table.schema
        )
        cursor = self.connection.cursor()
        if replace:
            cursor.execute(f'DROP TABLE IF EXISTS "{table.name}"')
        cursor.execute(f'CREATE TABLE "{table.name}" ({columns})')
        placeholders = ", ".join("?" for _ in table.schema.names)
        rows = [
            tuple(
                int(v) if isinstance(v, bool) else v for v in row
            )
            for row in table.rows()
        ]
        cursor.executemany(
            f'INSERT INTO "{table.name}" VALUES ({placeholders})', rows
        )
        self.connection.commit()
        self._schemas[table.name.lower()] = list(table.schema)
        self._catalog.register(
            Table.empty(table.name, list(table.schema)), replace=True
        )

    # ------------------------------------------------------------------
    # UDFs
    # ------------------------------------------------------------------

    def register_udf(
        self,
        udf: Any,
        *,
        replace: bool = False,
        deterministic: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> None:
        registered = self._registry.register(
            udf, replace=replace, deterministic=deterministic, version=version
        )
        definition = registered.definition
        if definition.kind is UdfKind.SCALAR:
            self._register_scalar(definition)
        elif definition.kind is UdfKind.AGGREGATE:
            self._register_aggregate(definition)
        else:
            raise UdfRegistrationError(
                "SQLite does not support table-valued Python UDFs"
            )

    def _register_scalar(self, definition: UdfDefinition) -> None:
        arg_types = definition.signature.arg_types
        out_type = definition.signature.return_types[0]
        func = definition.func
        name = definition.name
        names = (name,) + tuple(definition.fused_from)
        ctx = "fused" if definition.is_fused else "interp"
        strict = definition.strict
        adapter = self
        faults = _resilience.FAULTS

        fused_from = tuple(definition.fused_from)

        def bridge(*args):
            if OBS.metrics:
                METRICS.counter(
                    "repro_udf_calls_total", udf=name, engine="sqlite"
                ).inc()
            converted = None
            try:
                with _governor.udf_batch_guard(name, fused_from):
                    if faults.armed:
                        faults.injector.fire_row(names, None, ctx)
                    converted = [
                        _from_sqlite(v, t) for v, t in zip(args, arg_types)
                    ]
                    if strict and any(v is None for v in converted):
                        return None
                    return _to_sqlite(func(*converted), out_type)
            except QueryInterrupt as exc:
                # Never swallowed by row policies; stash so execute_sql
                # re-raises it through sqlite3's OperationalError mask.
                adapter._pending_error = exc
                raise
            except Exception as exc:
                retry = (
                    (lambda: func(*converted))
                    if converted is not None else None
                )
                values = tuple(converted) if converted is not None else args
                try:
                    result = _resilience.handle_value_error(
                        name, _resilience.policy(), exc, retry, values
                    )
                except UdfExecutionError as wrapped:
                    adapter._pending_error = wrapped
                    raise
                return _to_sqlite(result, out_type)

        self.connection.create_function(
            definition.name, definition.arity, bridge
        )

    def _register_aggregate(self, definition: UdfDefinition) -> None:
        arg_types = definition.signature.arg_types
        out_type = definition.signature.return_types[0]
        agg_class = definition.func
        skips_null = definition.skips_null_rows()
        name = definition.name
        names = (name,) + tuple(definition.fused_from)
        ctx = "fused" if definition.is_fused else "interp"
        adapter = self
        faults = _resilience.FAULTS

        class Bridge:
            def __init__(self):
                self._state = agg_class()
                self._rows = 0

            # Aggregate state cannot be reconciled after a failed step,
            # so row policies never apply: failures raise (localized to
            # the row/phase) and recovery is query-level deopt.

            def step(self, *args):
                if OBS.metrics:
                    METRICS.counter(
                        "repro_udf_calls_total", udf=name, engine="sqlite"
                    ).inc()
                row = self._rows
                self._rows += 1
                converted = None
                try:
                    with _governor.udf_batch_guard(name, names[1:]):
                        if faults.armed:
                            faults.injector.fire_row(names, row, ctx)
                        converted = [
                            _from_sqlite(v, t) for v, t in zip(args, arg_types)
                        ]
                        if skips_null and all(v is None for v in converted):
                            return
                        self._state.step(*converted)
                except QueryInterrupt as exc:
                    adapter._pending_error = exc
                    raise
                except UdfExecutionError as exc:
                    adapter._pending_error = exc
                    raise
                except Exception as exc:
                    value = (
                        tuple(converted) if converted is not None else args
                    )
                    wrapped = UdfExecutionError(
                        name, exc, row=row, value=value
                    )
                    adapter._pending_error = wrapped
                    raise wrapped from exc

            def finalize(self):
                try:
                    return _to_sqlite(self._state.final(), out_type)
                except QueryInterrupt as exc:
                    adapter._pending_error = exc
                    raise
                except UdfExecutionError as exc:
                    adapter._pending_error = exc
                    raise
                except Exception as exc:
                    wrapped = UdfExecutionError(name, exc, phase="final")
                    adapter._pending_error = wrapped
                    raise wrapped from exc

        self.connection.create_aggregate(
            definition.name, definition.arity, Bridge
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def explain_plan(self, statement):
        raise ExecutionError(
            "SQLite exposes no structured plan; QFusor uses SQL rewriting"
        )

    def _execute_plan(self, planned) -> Table:
        raise ExecutionError("SQLite does not accept plan dispatch")

    def _execute_sql(self, statement: Union[str, ast.Statement]) -> Table:
        sql = statement if isinstance(statement, str) else to_sql(statement)
        cursor = self.connection.cursor()
        self._pending_error = None
        gov = _governor.current()
        if gov is not None:
            # Cooperative cancellation for UDF-free stretches of the
            # statement: SQLite polls the handler every N VM opcodes and
            # aborts when it returns nonzero.
            def _progress() -> int:
                return 1 if (gov.cancelled or gov.expired) else 0

            self.connection.set_progress_handler(_progress, 1000)
        try:
            cursor.execute(sql)
            if cursor.description is None:
                self.connection.commit()
                from ..storage.column import Column

                return Table(
                    "rowcount",
                    [Column("rows", SqlType.INT, [cursor.rowcount],
                            validate=False)],
                )
            names = [d[0] for d in cursor.description]
            rows = cursor.fetchall()
        except (sqlite3.Error, QueryInterrupt) as exc:
            # sqlite3 reports UDF failures as a generic OperationalError;
            # surface the real error the bridge recorded instead.
            pending, self._pending_error = self._pending_error, None
            if pending is not None and pending is not exc:
                raise pending from exc
            if gov is not None and isinstance(exc, sqlite3.Error):
                gov.check()  # progress-handler abort -> typed interrupt
            raise
        finally:
            if gov is not None:
                self.connection.set_progress_handler(None, 0)
        return _table_from_cursor(names, rows)


def _from_sqlite(value: Any, sql_type: SqlType) -> Any:
    if value is None:
        return None
    if sql_type is SqlType.JSON:
        return serde.deserialize(value)
    if sql_type is SqlType.BOOL:
        return bool(value)
    return value


def _to_sqlite(value: Any, sql_type: SqlType) -> Any:
    if value is None:
        return None
    if sql_type is SqlType.JSON:
        return serde.serialize(value)
    if sql_type is SqlType.BOOL:
        return int(value)
    return value


def _table_from_cursor(names: Sequence[str], rows: List[tuple]) -> Table:
    from ..storage.column import Column

    columns = []
    for index, name in enumerate(names):
        values = [row[index] for row in rows]
        sql_type = _infer_sqlite_type(values)
        columns.append(Column(name, sql_type, values, validate=False))
    return Table("result", columns)


def _infer_sqlite_type(values: Sequence[Any]) -> SqlType:
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return SqlType.BOOL
        if isinstance(value, int):
            return SqlType.INT
        if isinstance(value, float):
            return SqlType.FLOAT
        return SqlType.TEXT
    return SqlType.TEXT
