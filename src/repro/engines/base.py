"""The engine adapter interface QFusor plugs into.

The paper's pluggability requirements (section 3.2): the engine must
offer (a) a plan-generation mechanism reachable through EXPLAIN and
(b) a UDF registration mechanism with C UDF support.  The adapter
interface mirrors exactly that, plus the two rewrite paths of section
5.4: plan dispatch (``execute_plan``) and SQL resubmission
(``execute_sql``).
"""

from __future__ import annotations

import contextlib
from typing import Any, Optional, Union

from ..engine.planner import PlannedQuery
from ..obs import OBS
from ..obs import tracer as obs_tracer
from ..resilience.governor import QueryContext, govern
from ..sql import ast_nodes as ast
from ..storage.table import Table
from ..udf.registry import UdfRegistry

__all__ = ["EngineAdapter"]


class EngineAdapter:
    """Base class for engine integrations.

    ``execute_plan`` / ``execute_sql`` are template methods: they wrap the
    engine-specific ``_execute_plan`` / ``_execute_sql`` in a governance
    scope (:func:`repro.resilience.governor.govern`) so every entry point
    honours deadlines, cancellation, and row budgets.  Called without a
    context — and with no ambient governed scope — they behave exactly as
    before (zero-overhead legacy path).
    """

    #: Engine name; must match a key in :data:`repro.core.dialect.DIALECTS`.
    name: str = "base"
    #: The engine can execute a rewritten plan directly (path 2).
    supports_plan_dispatch: bool = True
    #: UDF-to-SQL translation capability profile; must match a key in
    #: :data:`repro.sql.translate.DIALECT_PROFILES`.  The mini-engine
    #: family evaluates expressions with Python semantics, hence the
    #: default.  Keyed separately from ``name`` because adapters may
    #: share a SQL dialect (e.g. the tuple adapter parses sqlite SQL)
    #: while their expression *semantics* differ.
    translate_dialect: str = "python"
    #: Optional :class:`repro.storage.durability.DurabilityManager`
    #: attached via ``durability_dir=`` or
    #: :func:`repro.storage.durability.attach_to_adapter`.
    durability: Optional[Any] = None

    @property
    def registry(self) -> UdfRegistry:
        raise NotImplementedError

    @property
    def resolver(self):
        raise NotImplementedError

    @property
    def catalog(self):
        """The table catalog (schemas and snapshot epochs) the client
        layers read.  The mini-engine family exposes its database's;
        engines with external storage override this."""
        return self.database.catalog

    def row_count(self, table: str) -> Optional[int]:
        """Rows in ``table``, or None when the table is unknown or this
        adapter cannot say without running a query."""
        catalog = self.catalog
        return catalog.get(table).num_rows if table in catalog else None

    # -- process isolation -------------------------------------------------

    @property
    def workers(self):
        """The adapter's UDF worker pool, or ``None`` (in-process UDFs)."""
        return self.registry.workers

    def enable_process_isolation(self, **knobs: Any):
        """Route this adapter's UDF batches through supervised worker
        processes (``isolation="process"``).

        ``knobs`` are :class:`repro.resilience.workers.WorkerPool`
        constructor arguments (pool size, memory cap, restart budget,
        quarantine policy, ...).  Worker crashes charge the registry's
        circuit breakers.  Returns the pool.
        """
        from ..resilience.workers import WorkerPool

        pool = WorkerPool(**knobs)
        pool.on_crash = self.registry.breakers.record_failure
        self.registry.workers = pool
        return pool

    def disable_process_isolation(self) -> None:
        """Tear the worker pool down and return to in-process UDFs."""
        pool = self.workers
        if pool is not None:
            pool.shutdown()
            self.registry.workers = None

    # -- columnar data plane ----------------------------------------------

    @property
    def columnar(self):
        """The adapter's columnar-plane policy, or ``None`` (classic)."""
        return self.registry.columnar

    def enable_columnar(self, **knobs: Any):
        """Switch this adapter onto the typed-buffer data plane.

        ``knobs`` are :class:`repro.columnar.ColumnarPolicy` fields
        (``morsel_size``, ``threads``); ``None``/omitted knobs keep their
        current values.  Attaches the policy to the UDF registry (kernel
        dispatch) and the execution engine (morsel sharding).  Returns
        the policy.
        """
        from ..columnar import ColumnarPolicy

        policy = self.columnar or ColumnarPolicy()
        # Configured before attaching: a rejected knob attaches nothing.
        self.registry.columnar = policy.configure(**knobs)
        return policy

    def disable_columnar(self) -> None:
        """Return to the classic object paths."""
        self.registry.columnar = None

    def close(self) -> None:
        """Release adapter resources (worker processes, WAL)."""
        self.disable_process_isolation()
        if self.durability is not None:
            self.durability.close()
            self.durability = None

    # -- schema/UDF management ------------------------------------------

    def register_table(self, table: Table, *, replace: bool = False) -> None:
        raise NotImplementedError

    def register_udf(
        self,
        udf: Any,
        *,
        replace: bool = False,
        deterministic: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> None:
        raise NotImplementedError

    # -- query interface --------------------------------------------------

    def explain_plan(self, statement: Union[str, ast.Statement]) -> PlannedQuery:
        """Probe the engine's optimizer (the EXPLAIN round trip)."""
        raise NotImplementedError

    def execute_plan(
        self, planned: PlannedQuery, *, context: Optional[QueryContext] = None
    ) -> Table:
        """Dispatch a (possibly rewritten) plan to the execution engine."""
        return self._governed(self._execute_plan, planned, None, context)

    def execute_sql(
        self,
        statement: Union[str, ast.Statement],
        *,
        context: Optional[QueryContext] = None,
    ) -> Table:
        """Execute a SQL statement as-is."""
        query = statement if isinstance(statement, str) else None
        return self._governed(self._execute_sql, statement, query, context)

    def _governed(self, run, target, query: Optional[str], context) -> Table:
        """``run(target)`` inside a governance scope and, when tracing is
        on, an ``execute`` span (under a fresh root trace if none is
        active)."""
        with contextlib.ExitStack() as stack:
            sp = None
            if OBS.tracing:
                trace = stack.enter_context(
                    obs_tracer.maybe_trace("query", adapter=self.name)
                )
                if trace is not None and query is not None:
                    trace.root.attrs.setdefault("sql", query)
                sp = stack.enter_context(
                    obs_tracer.span("execute", adapter=self.name)
                )
            with govern(self.name, context, query=query) as gctx:
                result = run(target)
            if sp is not None:
                if result is not None:
                    sp.attrs["rows"] = getattr(result, "num_rows", None)
                if gctx is not None and gctx.tenant is not None:
                    sp.attrs["tenant"] = gctx.tenant
            return result

    # -- engine-specific execution (override these) -----------------------

    def _execute_plan(self, planned: PlannedQuery) -> Table:
        raise NotImplementedError

    def _execute_sql(self, statement: Union[str, ast.Statement]) -> Table:
        raise NotImplementedError
