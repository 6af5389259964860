"""The mini-engine family: one Database-backed adapter, five profiles.

Every engine QFusor hosts on our own :class:`~repro.engine.database.
Database` reaches it the same way — the EXPLAIN probe is
``database.plan``, registration is ``database.register_*``, plan and SQL
dispatch go to the database's executor — so :class:`DatabaseAdapter`
implements that interface once.  The engines the paper compares differ
only in *profile* (section 5.5): execution model, optimizer push-down,
UDF boundary and parallelism.  Each profile below is those few
declarations plus the one thing it really adds.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..columnar.morsel import MorselScheduler
from ..engine.database import Database
from ..engine.optimizer import OptimizerProfile
from ..engine.planner import PlannedQuery
from ..sql import ast_nodes as ast
from ..storage.table import Table
from ..udf.registry import ProcessChannel
from ..udf.state import StatsStore
from .base import EngineAdapter

__all__ = [
    "DatabaseAdapter", "MiniDbAdapter", "RowStoreAdapter", "TupleDbAdapter",
    "DuckDbLikeAdapter", "ParallelDbAdapter",
]


class DatabaseAdapter(EngineAdapter):
    """An engine that is a :class:`~repro.engine.database.Database`.

    The class attributes are the profile a subclass declares; the
    constructor builds the database from them.
    """

    #: Name of the :class:`Database` and of its optimizer profile.
    database_name: str = "minidb"
    #: ``"vector"`` (operator-at-a-time) or ``"tuple"`` (pipelined).
    execution_model: str = "vector"
    #: Whether the native optimizer pushes filters below UDF-bearing
    #: projections (``False`` reproduces Figure 6a's extra invocations).
    push_filter_below_udf_project: bool = True

    def __init__(self, *, stats: Optional[StatsStore] = None):
        self._open(stats=stats)

    def _open(
        self,
        database: Optional[Database] = None,
        *,
        stats: Optional[StatsStore] = None,
        channel: Optional[ProcessChannel] = None,
        durability_dir: Optional[Any] = None,
    ) -> None:
        self.database = database or Database(
            self.database_name,
            execution_model=self.execution_model,
            optimizer_profile=OptimizerProfile(
                name=self.database_name,
                push_filter_below_udf_project=(
                    self.push_filter_below_udf_project
                ),
            ),
            stats=stats,
            channel=channel,
        )
        if durability_dir is not None:
            # Recovers the directory's state into the catalog/registry
            # before the adapter serves anything, then WAL-logs writes.
            from ..storage.durability import attach_to_adapter

            attach_to_adapter(self, durability_dir)

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


class MiniDbAdapter(DatabaseAdapter):
    """The MonetDB-style deployment and QFusor's default host:
    operator-at-a-time vectorized execution with materialized
    intermediates, in-process UDFs, direct plan dispatch (the MAL-style
    path 2 of section 5.4).  Adopts an existing ``database`` when given
    one; ``columnar=True`` starts it on the typed-buffer data plane."""

    name = "minidb"

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        stats: Optional[StatsStore] = None,
        durability_dir: Optional[Any] = None,
        columnar: bool = False,
    ):
        self._open(database, stats=stats, durability_dir=durability_dir)
        if columnar:
            self.enable_columnar()


class RowStoreAdapter(DatabaseAdapter):
    """The PostgreSQL-style deployment: tuple-at-a-time execution,
    out-of-process UDFs, and a native optimizer that does *not* push
    filters below UDF-bearing projections — the "3x more UDF
    invocations" of Figure 6a.

    The out-of-process boundary has two fidelities:

    ``isolation="channel"`` (default)
        Every UDF batch pays a pickle round trip through a
        :class:`~repro.udf.registry.ProcessChannel` — the serialization
        cost of the boundary, in-process.  The tuple executor calls UDFs
        per value in process, so only batch invocations (``call_*``,
        ``QFusor.profile_udfs``) cross it.
    ``isolation="process"``
        UDF batches execute in real supervised worker processes
        (:class:`~repro.resilience.workers.WorkerPool`): the boundary
        gains real crash semantics — worker death, OOM kills, hang
        kills — on top of the same pickle cost.  Tune the pool on the
        pool: ``adapter.workers.configure(...)``.
    """

    name = "minidb_row"
    database_name = "minidb_row"
    execution_model = "tuple"
    push_filter_below_udf_project = False

    def __init__(
        self,
        *,
        stats: Optional[StatsStore] = None,
        isolation: str = "channel",
        durability_dir: Optional[Any] = None,
    ):
        if isolation not in ("channel", "process"):
            raise ValueError(f"unknown isolation mode {isolation!r}")
        self.isolation = isolation
        self.channel = ProcessChannel()
        self._open(
            stats=stats, channel=self.channel, durability_dir=durability_dir
        )
        if isolation == "process":
            self.enable_process_isolation()


class TupleDbAdapter(DatabaseAdapter):
    """The SQLite model on our own engine: in-process, pipelined
    iterators, one UDF boundary round trip per row per UDF (the
    "numerous foreign function calls" of the paper's SQLite analysis).
    Used wherever the workloads exceed the SQL coverage of the stdlib
    ``sqlite3`` adapter."""

    name = "sqlite"  # dialect profile: in-process tuple-at-a-time
    database_name = "tupledb"
    execution_model = "tuple"


class DuckDbLikeAdapter(DatabaseAdapter):
    """The DuckDB-style profile: vectorized execution, eager
    intermediate materialization around UDFs, no UDF JIT of its own.
    Structurally MiniDB; it differs in its dialect entry and in which
    QFusor features benchmarks attach to it."""

    name = "duckdb"
    database_name = "duckdb_like"


class ParallelDbAdapter(DatabaseAdapter):
    """The commercial "dbX" profile: the vector executor with a threaded
    morsel scheduler, but no columnar kernels, no UDF JIT and no fusion
    of its own — "strong parallelism, but its lack of UDF JIT
    compilation and context switches between relational and UDF
    operators limit performance"."""

    name = "dbx"
    database_name = "dbx"

    def __init__(self, threads: int = 4, *, stats: Optional[StatsStore] = None):
        self._open(stats=stats)
        # Threads without the plane: the registry's ``columnar`` stays
        # ``None``, so UDFs keep their classic per-value crossings.
        self.database.own_scheduler = MorselScheduler(threads=threads)

    @property
    def threads(self) -> int:
        return self.database.scheduler.threads
