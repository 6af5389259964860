"""The QFusor client (paper sections 3.2 and 5).

``QFusor`` attaches to an engine adapter as a thin client layer.  For a
query containing UDFs it runs the four-step pipeline:

1. **Discover fusible operators** — probe the engine's optimizer (the
   EXPLAIN round trip), build the DFG over the plan (Algorithm 1);
2. **Fusion optimization** — discover fusible sections with the
   DP of Algorithm 2 under the hybrid cost/heuristic model;
3. **JIT code generation** — generate and compile the fused UDFs,
   registering them through the ordinary registration mechanism;
4. **Query rewrite** — dispatch the rewritten plan directly to the
   execution engine (path 2) or resubmit rewritten SQL (path 1, used for
   engines without plan dispatch and for DML).

Queries without UDFs pass through untouched.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

from ..cache import CacheManager
from ..cache.plan_cache import PlanEntry
from ..engine.database import Database
from ..engine.explain import explain_text
from ..engine.plan import Field
from ..errors import (
    CircuitOpenError, QueryTimeoutError, ReproError, UdfRegistrationError,
)
from ..jit.cache import TraceCache
from ..jit.codegen import FusedUdf
from ..obs import METRICS, OBS
from ..obs import tracer as obs_tracer
from ..resilience import (
    AdmissionGate, DeoptEvent, FusionBlocklist, QueryContext,
    ResilienceContext, RowEvent, activate,
)
from ..resilience import governor
from ..sql import ast_nodes as ast
from ..sql.parser import parse
from ..sql.printer import to_sql
from ..sql.translate import TranslateEvent, TranslationResult, Untranslatable
from ..storage.table import Table
from ..udf.definition import UdfKind
from .config import QFusorConfig
from .cost import CostModel
from .dfg import build_dfg
from .heuristics import Heuristics
from .rewrite import rewrite_statement
from .sections import FusibleSection, discover_sections
from .transform import FusionOutcome, PlanFuser

__all__ = ["QFusor", "QFusorReport"]


@dataclass
class QFusorReport:
    """What QFusor did for one query (feeds Figure 4 bottom)."""

    sql: str
    is_udf_query: bool = False
    sections: List[FusibleSection] = field(default_factory=list)
    fused: List[FusedUdf] = field(default_factory=list)
    #: "fus-optim": discovery + fusion optimization seconds.
    fus_optim_seconds: float = 0.0
    #: "code-gen": fused-UDF and query/plan generation seconds.
    codegen_seconds: float = 0.0
    cache_hits: int = 0
    plan_before: str = ""
    plan_after: str = ""
    rewritten_sql: Optional[str] = None
    #: Query-level de-optimizations (fused -> unfused re-execution).
    deopt_events: List[DeoptEvent] = field(default_factory=list)
    #: Row-level exceptions recovered inside fused batch wrappers.
    row_events: List[RowEvent] = field(default_factory=list)
    #: Out-of-process channel incidents observed during this query.
    channel_events: List[Any] = field(default_factory=list)
    #: Worker-pool supervision incidents (crashes, hang kills, OOM
    #: kills, restarts, quarantines) observed during this query.
    worker_events: List[Any] = field(default_factory=list)
    #: UDF names whose open circuit breakers forced the unfused path.
    breaker_bypass: List[str] = field(default_factory=list)
    #: Cache interactions (:class:`repro.cache.manager.CacheEvent`):
    #: plan/result hits and stores, single-flight outcomes.
    cache_events: List[Any] = field(default_factory=list)
    #: UDF names compiled away by Froid-style translation (the query ran
    #: with no UDF boundary at all).
    translated: List[str] = field(default_factory=list)
    #: Translation decisions (:class:`repro.sql.translate.TranslateEvent`):
    #: hit / unsupported / deopt, with reasons.
    translate_events: List[TranslateEvent] = field(default_factory=list)

    @property
    def fused_names(self) -> List[str]:
        return [f.definition.name for f in self.fused]

    def translate_outcome(self) -> Optional[str]:
        """The last translation decision for this query, or None."""
        return self.translate_events[-1].outcome if self.translate_events else None

    @property
    def deopted(self) -> bool:
        return bool(self.deopt_events)

    def cache_outcome(self, tier: str) -> Optional[str]:
        """The last recorded action for one cache tier, or None."""
        for event in reversed(self.cache_events):
            if event.tier == tier:
                return event.action
        return None

    @property
    def recovered_rows(self) -> int:
        return len(self.row_events)

    @property
    def total_overhead_seconds(self) -> float:
        return self.fus_optim_seconds + self.codegen_seconds


class QFusor:
    """The pluggable UDF-query optimizer client."""

    def __init__(
        self,
        engine: Any,
        config: Optional[QFusorConfig] = None,
    ):
        from ..engines.base import EngineAdapter
        from ..engines.minidb import MiniDbAdapter

        if isinstance(engine, Database):
            engine = MiniDbAdapter(engine)
        if not isinstance(engine, EngineAdapter):
            raise ReproError(
                f"QFusor needs an EngineAdapter or Database, got {type(engine)}"
            )
        self.adapter = engine
        self.config = config or QFusorConfig()
        self.cost_model = CostModel(engine.registry.stats)
        self.heuristics = Heuristics(
            self.config, self.cost_model,
            FusionBlocklist(self.config.deopt_cooldown),
        )
        self.cache = TraceCache(
            self.config.trace_cache,
            capacity=self.config.trace_cache_capacity,
        )
        # Propagate channel hardening knobs to adapters with a resilient
        # out-of-process channel (the row-store deployment).
        channel = getattr(engine, "channel", None)
        if channel is not None and hasattr(channel, "configure"):
            channel.configure(
                timeout=self.config.channel_timeout,
                retries=self.config.channel_retries,
                backoff=self.config.channel_backoff,
            )
        # Propagate worker-pool supervision knobs to adapters running
        # UDFs in supervised worker processes (isolation="process").
        workers = getattr(engine, "workers", None)
        if workers is not None and hasattr(workers, "configure"):
            workers.configure(
                max_batch_retries=self.config.worker_max_batch_retries,
                quarantine_policy=self.config.worker_quarantine_policy,
                max_restarts=self.config.worker_max_restarts,
                memory_limit_mb=self.config.worker_memory_limit_mb,
                batch_timeout_s=self.config.worker_batch_timeout_s,
            )
        self.fuser = PlanFuser(
            engine.registry, engine.resolver, self.cost_model,
            self.heuristics, self.config, self.cache,
        )
        # Multi-tier caching subsystem (plan / UDF memo / result); all
        # tiers default off, so `caches.active` is the only cost the
        # uncached path pays.
        self.caches = CacheManager(self.adapter, self.config)
        # Fused UDFs must reach the engine itself (the sqlite3 adapter,
        # for example, registers through create_function).
        self.fuser.register_hook = engine.register_udf
        # Per-query report state is thread-local (and mirrored onto the
        # governed QueryContext) so concurrent queries sharing one
        # QFusor can never read each other's reports.
        self._reports = threading.local()
        self._last_context: Optional[QueryContext] = None
        # Per-UDF circuit breakers live on the registry (shared with any
        # other client of the same adapter); thresholds come from config.
        engine.registry.breakers.configure(
            enabled=self.config.breaker_enabled,
            window=self.config.breaker_window,
            min_calls=self.config.breaker_min_calls,
            failure_threshold=self.config.breaker_failure_threshold,
            latency_threshold_s=self.config.breaker_latency_threshold_s,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        # Bounded admission control (None: unlimited concurrency).
        self.admission: Optional[AdmissionGate] = None
        if self.config.max_concurrent_queries is not None:
            self.admission = AdmissionGate(
                self.config.max_concurrent_queries,
                queue_timeout_s=self.config.admission_timeout_s,
            )
        # Froid-style UDF-to-SQL translation, tried ahead of fusion.
        # Built only when enabled so the disabled path pays exactly one
        # ``is None`` check per UDF query and makes zero translator calls.
        self.translator = None
        if self.config.translate_enabled:
            from ..sql.translate import UdfTranslator

            self.translator = UdfTranslator(
                engine.registry,
                getattr(engine, "translate_dialect", "python"),
                max_inline_depth=self.config.translate_max_inline_depth,
                self_check=self.config.translate_self_check,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Take this client back out of the adapter's registry: the
        caches' version listener and memo tier, and the fused UDFs it
        registered.  The adapter stays open (its owner closes it), so
        throw-away clients on a long-lived adapter leave nothing behind.
        """
        self.caches.close()
        registered, self.fuser.registered = self.fuser.registered, []
        for name in registered:
            try:
                self.adapter.registry.drop(name)
            except UdfRegistrationError:
                pass  # a de-optimization already dropped it

    def __enter__(self) -> "QFusor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-query report state
    # ------------------------------------------------------------------

    @property
    def last_report(self) -> Optional[QFusorReport]:
        """The report of the last query run *by this thread*.

        When a governed :class:`QueryContext` is active, its own report
        is authoritative — the context travels with the query, so even
        helper threads resolve the right one.  Otherwise the value falls
        back to this thread's last pipeline run.  Either way, concurrent
        queries never observe a neighbour's report.
        """
        ctx = governor.current()
        if ctx is not None and ctx.report is not None:
            return ctx.report
        return getattr(self._reports, "value", None)

    @last_report.setter
    def last_report(self, report: Optional[QFusorReport]) -> None:
        self._reports.value = report
        ctx = governor.current()
        if ctx is not None:
            ctx.report = report

    # ------------------------------------------------------------------
    # Registration passthrough
    # ------------------------------------------------------------------

    def register_table(self, table: Table, *, replace: bool = False) -> None:
        self.adapter.register_table(table, replace=replace)

    def register_udf(
        self,
        udf: Any,
        *,
        replace: bool = False,
        deterministic: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> None:
        self.adapter.register_udf(
            udf, replace=replace, deterministic=deterministic, version=version
        )

    def register_udfs(self, udfs: Sequence[Any], *, replace: bool = False) -> None:
        for udf in udfs:
            self.adapter.register_udf(udf, replace=replace)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: Union[str, ast.Statement],
        *,
        context: Optional[QueryContext] = None,
        timeout_s: Optional[float] = None,
    ) -> Table:
        """Execute a statement through the QFusor pipeline.

        ``context`` (or the ``timeout_s`` shortcut / the config-level
        governance knobs) puts the whole pipeline — optimization, fused
        dispatch, and any de-optimized retry — under one governed scope:
        deadline, cancellation token, row budget, and the runaway-UDF
        watchdog all apply end to end.
        """
        with contextlib.ExitStack() as stack:
            trace = None
            if OBS.tracing:
                trace = stack.enter_context(
                    obs_tracer.maybe_trace("query", adapter=self.adapter.name)
                )
            sp = obs_tracer.span_start("parse") if OBS.tracing else None
            statement = parse(sql) if isinstance(sql, str) else sql
            sql_text = sql if isinstance(sql, str) else to_sql(statement)
            if sp is not None:
                obs_tracer.span_end(sp)
            if trace is not None:
                trace.root.attrs.setdefault("sql", sql_text)
            ctx = self._resolve_context(context, timeout_s, sql_text)
            if self.admission is not None:
                stack.enter_context(self.admission.admit())
            if ctx is not None:
                stack.enter_context(governor.activate(ctx))
            return self._execute_pipeline(statement, sql_text)

    def cancel(self, reason: str = "cancelled") -> bool:
        """Cancel the most recently started governed execution, if any."""
        ctx = self._last_context
        if ctx is None:
            return False
        ctx.cancel(reason)
        return True

    def _resolve_context(
        self,
        context: Optional[QueryContext],
        timeout_s: Optional[float],
        sql_text: str,
    ) -> Optional[QueryContext]:
        if context is None:
            effective_timeout = (
                timeout_s if timeout_s is not None
                else self.config.query_timeout_s
            )
            if (
                effective_timeout is None
                and self.config.udf_batch_timeout_s is None
                and self.config.row_budget is None
            ):
                self._last_context = None
                return None  # ungoverned legacy path
            context = QueryContext(
                timeout_s=effective_timeout,
                udf_batch_timeout_s=self.config.udf_batch_timeout_s,
                row_budget=self.config.row_budget,
            )
        elif timeout_s is not None and context.timeout_s is None:
            context.timeout_s = timeout_s
        if context.query is None:
            context.query = sql_text
        self._last_context = context
        return context

    def _execute_pipeline(
        self, statement: ast.Statement, sql_text: str
    ) -> Table:
        report = QFusorReport(sql=sql_text)
        self.last_report = report
        # Advance the deopt blocklist's per-query cooldown clock.
        self.heuristics.blocklist.tick()

        caches = self.caches
        if not caches.active:
            return self._run_pipeline(statement, report)
        if not isinstance(statement, ast.Select):
            # DML/DDL: run normally, then retire dependent result-cache
            # entries by bumping the written tables' snapshot epochs.
            try:
                return self._run_pipeline(statement, report)
            finally:
                caches.note_write(statement)
        rkey = caches.result_key(
            statement, sql_text, self._referenced_udfs(statement)
        )
        if rkey is None:
            return self._run_pipeline(statement, report)

        def execute():
            result = self._run_pipeline(statement, report)
            return result, CacheManager.storeable(report)

        result, outcome = caches.result_get_or_execute(rkey, report, execute)
        if outcome in ("hit", "shared"):
            # The pipeline never ran for this caller; reflect what kind
            # of query the cached answer stands for.
            report.is_udf_query = rkey.is_udf_query
        return result

    def _run_pipeline(
        self, statement: ast.Statement, report: QFusorReport
    ) -> Table:
        if not self.config.enabled or not self._involves_udfs(statement):
            try:
                return self.adapter.execute_sql(statement)
            finally:
                self._drain_runtime_events(report)
        report.is_udf_query = True

        # Circuit-breaker gate: a query referencing an open-breaker UDF
        # either fails fast or bypasses fusion entirely (policy).
        if not self._admit_breakers(statement, report):
            return self.adapter.execute_sql(statement)

        if isinstance(statement, ast.Select):
            return self._execute_select(statement, report)
        if self.translator is not None:
            result = self._try_translate(
                statement, report, None,
                fallback=lambda: self._run_dml_fused(statement, report),
            )
            if result is not None:
                return result
        return self._run_dml_fused(statement, report)

    def _run_dml_fused(
        self, statement: ast.Statement, report: QFusorReport
    ) -> Table:
        # DML with UDFs: rewrite expressions at the SQL level (4.2.5).
        sp = obs_tracer.span_start("fuse") if OBS.tracing else None
        start = time.perf_counter()
        rewritten = rewrite_statement(
            statement, self._fuse_expression_hook(report), self._catalog()
        )
        report.codegen_seconds = time.perf_counter() - start
        report.rewritten_sql = to_sql(rewritten)
        if sp is not None:
            obs_tracer.span_end(sp, fused=len(report.fused))
        return self._dispatch_guarded(
            report,
            lambda: self.adapter.execute_sql(rewritten),
            lambda: self.adapter.execute_sql(statement),
        )

    def _admit_breakers(
        self, statement: ast.Statement, report: QFusorReport
    ) -> bool:
        """Apply the per-UDF circuit-breaker policy before any work.

        Returns False when the query must run unfused (open breaker +
        ``unfused`` policy); raises :class:`CircuitOpenError` under the
        ``fail_fast`` policy.  Returning True admits the normal pipeline
        (a half-open breaker's single probe comes through here too).
        """
        board = self.adapter.registry.breakers
        if not board.enabled:
            return True
        refused = board.refusing(self._referenced_udfs(statement))
        if not refused:
            return True
        if self.config.breaker_policy == "fail_fast":
            first = refused[0]
            raise CircuitOpenError(
                first, retry_in_s=board.breaker(first).retry_in_s()
            )
        report.breaker_bypass = list(refused)
        if OBS.metrics:
            METRICS.counter("repro_breaker_bypass_total").inc()
        if OBS.tracing:
            obs_tracer.add_event("breaker_bypass", udfs=",".join(refused))
        return False

    def _referenced_udfs(self, statement: ast.Statement) -> List[str]:
        registry = self.adapter.registry
        names: List[str] = []
        for expr in _statement_expressions(statement):
            for node in ast.walk_expr(expr):
                if (
                    isinstance(node, ast.FunctionCall)
                    and node.name in registry
                    and node.name.lower() not in names
                ):
                    names.append(node.name.lower())
        return names

    def _execute_select(
        self, statement: ast.Select, report: QFusorReport
    ) -> Table:
        pkey = (
            self.caches.plan_key(statement, self._referenced_udfs(statement))
            if self.caches.active else None
        )
        if pkey is not None:
            entry = self.caches.plan_lookup(pkey, report)
            if entry is not None:
                return self._dispatch_cached_plan(statement, entry, report, pkey)

        # Froid-style translation first: when every UDF reference
        # compiles to SQL, the UDF boundary disappears and fusion has
        # nothing left to do.  Unsupported shapes fall through to the
        # fusion/JIT ladder below with an `unsupported` event.
        if self.translator is not None:
            result = self._try_translate(
                statement, report, pkey,
                fallback=lambda: self._execute_select_fused(
                    statement, report, pkey
                ),
            )
            if result is not None:
                return result
        return self._execute_select_fused(statement, report, pkey)

    def _execute_select_fused(
        self,
        statement: ast.Select,
        report: QFusorReport,
        pkey: Optional[tuple],
    ) -> Table:
        if not self.adapter.supports_plan_dispatch:
            # Path 1: SQL rewriting only (expression-level fusion).
            sp = obs_tracer.span_start("fuse") if OBS.tracing else None
            start = time.perf_counter()
            rewritten = rewrite_statement(
                statement, self._fuse_expression_hook(report), self._catalog()
            )
            report.codegen_seconds = time.perf_counter() - start
            report.rewritten_sql = to_sql(rewritten)
            if sp is not None:
                obs_tracer.span_end(
                    sp, fused=len(report.fused), cache_hits=report.cache_hits
                )
            if pkey is not None:
                self.caches.plan_store(
                    pkey,
                    PlanEntry(
                        kind="sql",
                        rewritten=rewritten,
                        fused=list(report.fused),
                    ),
                    report,
                )
            return self._dispatch_guarded(
                report,
                lambda: self.adapter.execute_sql(rewritten),
                lambda: self.adapter.execute_sql(statement),
            )

        # EXPLAIN probe: get the engine's optimized plan.
        sp = obs_tracer.span_start("plan") if OBS.tracing else None
        planned = self.adapter.explain_plan(statement)
        report.plan_before = explain_text(planned)
        if sp is not None:
            obs_tracer.span_end(sp)

        # Steps 1-3 under one "fuse" span: discovery + fusion
        # optimization + JIT code generation (the jit_compile span nests
        # inside, opened by TraceCache on a compile miss).
        sp = obs_tracer.span_start("fuse") if OBS.tracing else None
        start = time.perf_counter()
        graph = build_dfg(planned, self.adapter.resolver)
        report.sections = discover_sections(graph, self.cost_model, self.config)
        report.fus_optim_seconds = time.perf_counter() - start

        outcome = self.fuser.fuse_query(planned)
        report.codegen_seconds = outcome.codegen_seconds
        report.fused = outcome.fused
        report.cache_hits = outcome.cache_hits
        report.plan_after = explain_text(outcome.planned)
        if sp is not None:
            obs_tracer.span_end(
                sp,
                sections=len(report.sections),
                fused=len(report.fused),
                cache_hits=report.cache_hits,
            )

        if pkey is not None:
            self.caches.plan_store(
                pkey,
                PlanEntry(
                    kind="plan",
                    original=planned,
                    fused_planned=outcome.planned,
                    fused=list(outcome.fused),
                    sections=list(report.sections),
                    plan_before=report.plan_before,
                    plan_after=report.plan_after,
                ),
                report,
            )

        # Step 4: dispatch the rewritten plan (path 2), guarded.
        return self._dispatch_guarded(
            report,
            lambda: self.adapter.execute_plan(outcome.planned),
            lambda: self.adapter.execute_plan(planned),
        )

    def _dispatch_cached_plan(
        self,
        statement: ast.Select,
        entry: PlanEntry,
        report: QFusorReport,
        pkey: Optional[tuple] = None,
    ) -> Table:
        """Dispatch a plan-cache hit: parse/probe/plan/fuse all skipped."""
        report.fused = list(entry.fused)
        if entry.kind == "translated":
            names = list(entry.translated)
            report.translated = names
            report.rewritten_sql = to_sql(entry.rewritten)
            report.translate_events.append(
                TranslateEvent(tuple(names), "hit", "plan-cache")
            )
            if OBS.metrics:
                METRICS.counter("repro_translate_total", outcome="hit").inc()
            return self._dispatch_translated(
                entry.rewritten, names, report, pkey=pkey,
                fallback=lambda: self._execute_select_fused(
                    statement, report, None
                ),
            )
        if entry.kind == "sql":
            report.rewritten_sql = to_sql(entry.rewritten)
            return self._dispatch_guarded(
                report,
                lambda: self.adapter.execute_sql(entry.rewritten),
                lambda: self.adapter.execute_sql(statement),
            )
        report.sections = list(entry.sections)
        report.plan_before = entry.plan_before
        report.plan_after = entry.plan_after
        return self._dispatch_guarded(
            report,
            lambda: self.adapter.execute_plan(entry.fused_planned),
            lambda: self.adapter.execute_plan(entry.original),
        )

    # ------------------------------------------------------------------
    # Froid-style UDF-to-SQL translation (ahead of fusion)
    # ------------------------------------------------------------------

    def _try_translate(
        self,
        statement: ast.Statement,
        report: QFusorReport,
        pkey: Optional[tuple],
        *,
        fallback,
    ) -> Optional[Table]:
        """Compile every UDF reference away, or return None to fuse.

        All-or-nothing per statement: a single untranslatable reference
        keeps the whole query on the fusion ladder (mixing translated
        and boundary-crossing UDFs in one statement buys nothing — the
        boundary is still paid).
        """
        sp = obs_tracer.span_start("translate") if OBS.tracing else None
        try:
            outcome = self.translator.translate_statement(
                statement, self._catalog()
            )
        except Exception as exc:
            # A translator defect must degrade to fusion, never fail the
            # query: translation is an optimization, not a dependency.
            outcome = TranslationResult()
            outcome.failures[""] = Untranslatable(
                f"translator error: {type(exc).__name__}: {exc}"
            )
        if outcome.statement is None:
            reason = "; ".join(
                f"{f.udf}: {f.reason}" if f.udf else f.reason
                for f in outcome.failures.values()
            )
            report.translate_events.append(
                TranslateEvent(
                    tuple(sorted(n for n in outcome.failures if n)),
                    "unsupported",
                    reason,
                )
            )
            if OBS.metrics:
                METRICS.counter(
                    "repro_translate_total", outcome="unsupported"
                ).inc()
            if sp is not None:
                obs_tracer.span_end(sp, translated=0)
            return None
        names = sorted(outcome.translated)
        report.translated = list(names)
        report.rewritten_sql = to_sql(outcome.statement)
        report.translate_events.append(TranslateEvent(tuple(names), "hit"))
        if OBS.metrics:
            METRICS.counter("repro_translate_total", outcome="hit").inc()
        if sp is not None:
            obs_tracer.span_end(sp, translated=len(names))
        return self._dispatch_translated(
            outcome.statement, names, report, pkey=pkey, fallback=fallback
        )

    def _dispatch_translated(
        self,
        rewritten: ast.Statement,
        names: List[str],
        report: QFusorReport,
        *,
        pkey: Optional[tuple],
        fallback,
    ) -> Table:
        """Execute the translated statement; on a runtime fault, poison
        the translation and fall back through the fusion ladder."""
        try:
            result = self.adapter.execute_sql(rewritten)
        except QueryTimeoutError:
            # The translated statement has no UDF boundary left to blame;
            # re-running the same work unfused would time out again.
            self._drain_runtime_events(report)
            raise
        except Exception as exc:
            self._drain_runtime_events(report)
            if not self.config.deopt:
                raise
            self._translate_deopt(exc, names, report, pkey)
            return self._reexecute(report, fallback)
        self._drain_runtime_events(report)
        if pkey is not None and not report.deopted:
            # Stored only after a clean dispatch, so a poisoned
            # translation can never be re-served from the plan cache.
            self.caches.plan_store(
                pkey,
                PlanEntry(
                    kind="translated",
                    rewritten=rewritten,
                    translated=list(names),
                ),
                report,
            )
        return result

    def _translate_deopt(
        self,
        exc: BaseException,
        names: List[str],
        report: QFusorReport,
        pkey: Optional[tuple],
    ) -> None:
        """Record a translated-path runtime fault and poison the
        translations so later queries go straight to fusion."""
        reason = f"{type(exc).__name__}: {exc}"
        self.translator.poison(names, reason)
        if pkey is not None:
            self.caches.plan_invalidate(pkey, report)
        report.translated = []
        report.translate_events.append(
            TranslateEvent(tuple(names), "deopt", reason)
        )
        # A DeoptEvent keeps the existing machinery honest: storeable()
        # refuses to cache the degraded run, report.deopted flips, and
        # dashboards counting deopts see translated-path faults too.
        report.deopt_events.append(
            DeoptEvent(udf_names=tuple(names), error=reason)
        )
        if OBS.metrics:
            METRICS.counter("repro_translate_total", outcome="deopt").inc()
            METRICS.counter("repro_deopt_total").inc()
        if OBS.tracing:
            obs_tracer.add_event(
                "translate_deopt", udfs=",".join(names), error=reason
            )

    # ------------------------------------------------------------------
    # Guarded dispatch + de-optimization
    # ------------------------------------------------------------------

    def _dispatch_guarded(self, report: QFusorReport, run_fused,
                          run_unfused) -> Table:
        """Run the fused plan or statement; on a runtime fault,
        de-optimize and transparently re-execute the original (unfused)
        one.  The two thunks dispatch a plan (path 2) or SQL (path 1 /
        DML) — the guard is the same."""
        if not report.fused:
            return run_fused()
        context = ResilienceContext(self.config.row_error_policy)
        try:
            with activate(context):
                result = run_fused()
        except (QueryTimeoutError, Exception) as exc:
            self._finish_guarded(report, context)
            if isinstance(exc, QueryTimeoutError):
                if not self._timeout_retry_allowed(exc, report):
                    raise
            elif not self.config.deopt:
                raise
            self._deoptimize(exc, report.fused_names, report)
            # The original plan nodes / statement were never mutated by
            # fusion, so re-dispatching them runs the pure per-UDF path.
            return self._reexecute(report, run_unfused)
        self._finish_guarded(report, context)
        return result

    def _timeout_retry_allowed(
        self, exc: QueryTimeoutError, report: QFusorReport
    ) -> bool:
        """Whether a fused-path timeout warrants one unfused retry.

        Only when the fused trace is the suspect (a per-batch cap fired
        inside a UDF this query fused), deopt is on, and the query
        deadline still has slack — a whole-query timeout means the time
        is simply gone, so retrying would just time out again.
        """
        if not (self.config.deopt and self.config.timeout_deopt_retry):
            return False
        if exc.udf_name is None or exc.udf_name not in report.fused_names:
            return False
        ctx = governor.current()
        if ctx is not None:
            remaining = ctx.remaining()
            if remaining is not None and remaining <= 0:
                return False
            # Clear the fused attribution so the unfused retry is judged
            # (and annotated) on its own behaviour.
            ctx.timed_out_udf = None
            ctx.timeout_kind = None
        return True

    def _reexecute(self, report: QFusorReport, run) -> Table:
        try:
            return run()
        except Exception:
            # The unfused path fails too: the fault is genuine (a user
            # UDF raising), not a fused-trace artifact.  Propagate.
            if report.deopt_events:
                report.deopt_events[-1].recovered = False
            raise

    def _finish_guarded(
        self, report: QFusorReport, context: ResilienceContext
    ) -> None:
        report.row_events.extend(context.row_events)
        self._drain_runtime_events(report)

    def _drain_runtime_events(self, report: QFusorReport) -> None:
        """Move adapter-side channel/worker incidents into the report."""
        channel = getattr(self.adapter, "channel", None)
        if channel is not None and hasattr(channel, "drain_incidents"):
            report.channel_events.extend(channel.drain_incidents())
        else:
            incidents = getattr(channel, "incidents", None)
            if incidents:
                report.channel_events.extend(incidents)
                incidents.clear()
        workers = getattr(self.adapter, "workers", None)
        if workers is not None:
            report.worker_events.extend(workers.drain_incidents())

    def _deoptimize(
        self,
        exc: BaseException,
        fused_names: Sequence[str],
        report: QFusorReport,
    ) -> None:
        """Invalidate and blocklist the trace(s) behind a runtime fault."""
        # UdfExecutionError and QueryTimeoutError both carry udf_name.
        if getattr(exc, "udf_name", None) in fused_names:
            targets = [exc.udf_name]
        else:
            targets = list(fused_names)
        invalidated = []
        blocked = 0
        for name in targets:
            key = self.cache.key_for(name)
            if key is not None:
                if self.cache.invalidate(key):
                    invalidated.append(name)
                self.heuristics.blocklist.block(key)
                blocked += 1
            try:
                self.adapter.registry.drop(name)
            except UdfRegistrationError:
                pass  # already dropped, or engine-side registration only
        report.deopt_events.append(
            DeoptEvent(
                udf_names=tuple(targets),
                error=repr(exc),
                invalidated=tuple(invalidated),
                blocklisted=blocked,
            )
        )
        if OBS.metrics:
            METRICS.counter("repro_deopt_total").inc()
        if OBS.tracing:
            obs_tracer.add_event(
                "deopt", udfs=",".join(targets), error=type(exc).__name__
            )

    def analyze(self, sql: Union[str, ast.Statement]) -> QFusorReport:
        """Run the pipeline without executing; returns the report."""
        statement = parse(sql) if isinstance(sql, str) else sql
        sql_text = sql if isinstance(sql, str) else to_sql(statement)
        report = QFusorReport(sql=sql_text)
        if not isinstance(statement, ast.Select) or not self._involves_udfs(
            statement
        ):
            return report
        report.is_udf_query = True
        planned = self.adapter.explain_plan(statement)
        report.plan_before = explain_text(planned)
        start = time.perf_counter()
        graph = build_dfg(planned, self.adapter.resolver)
        report.sections = discover_sections(graph, self.cost_model, self.config)
        report.fus_optim_seconds = time.perf_counter() - start
        outcome = self.fuser.fuse_query(planned)
        report.codegen_seconds = outcome.codegen_seconds
        report.fused = outcome.fused
        report.cache_hits = outcome.cache_hits
        report.plan_after = explain_text(outcome.planned)
        self.last_report = report
        return report

    def profile_udfs(
        self,
        table_name: str,
        *,
        sample_rows: int = 256,
        rounds: int = 3,
    ) -> dict:
        """Warm the cost model by profiling registered UDFs on a sample.

        The paper's CherryPick-inspired adaptive profiling (section
        5.2.2): each scalar UDF whose argument types match a column of
        ``table_name`` is executed ``rounds`` times over a ``sample_rows``
        sample; the observations feed the Bayesian posterior that the
        fusion optimizer consults, eliminating cold starts.

        Returns ``{udf_name: bucketed_cost_per_tuple}`` for the UDFs
        profiled.
        """
        from ..udf.definition import UdfKind

        catalog = self._catalog()
        table = catalog.get(table_name)
        size = min(sample_rows, table.num_rows)
        sample = table.slice(0, size)
        profiled = {}
        for registered in self.adapter.registry:
            definition = registered.definition
            if definition.kind is not UdfKind.SCALAR or definition.is_fused:
                continue
            columns = []
            for arg_type in definition.signature.arg_types:
                match = next(
                    (c for c in sample.columns if c.sql_type is arg_type), None
                )
                if match is None:
                    break
                columns.append(match)
            if len(columns) != definition.arity or not columns:
                continue
            try:
                for _ in range(rounds):
                    registered.call_scalar(columns, size)
            except Exception:
                continue  # profiling must never break registration state
            profiled[definition.name] = (
                self.adapter.registry.stats.expected_cost(definition.name)
            )
        return profiled

    def rewrite_sql(self, sql: str) -> str:
        """Path 1: produce the fused SQL text for resubmission."""
        report = QFusorReport(sql=sql)
        statement = parse(sql)
        rewritten = rewrite_statement(
            statement, self._fuse_expression_hook(report), self._catalog()
        )
        self.last_report = report
        return to_sql(rewritten)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _catalog(self):
        catalog = getattr(self.adapter, "catalog", None)
        if catalog is not None:
            return catalog
        database = getattr(self.adapter, "database", None)
        if database is not None:
            return database.catalog
        from ..storage.catalog import Catalog

        return Catalog()

    def _fuse_expression_hook(self, report: QFusorReport):
        """An (expr, fields) -> expr callback for the SQL-rewrite path."""

        def hook(expr: ast.Expr, fields: Sequence[Field]) -> ast.Expr:
            holder = _SchemaHolder(fields)
            outcome = FusionOutcome(None)
            fused = self.fuser._fuse_expr(expr, holder, outcome)
            report.fused.extend(outcome.fused)
            report.cache_hits += outcome.cache_hits
            return fused

        return hook

    def _involves_udfs(self, statement: ast.Statement) -> bool:
        registry = self.adapter.registry
        for expr in _statement_expressions(statement):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.FunctionCall) and node.name in registry:
                    return True
        for item in _statement_from_items(statement):
            if isinstance(item, ast.TableFunctionRef):
                return True
        return False


class _SchemaHolder:
    """Duck-typed plan node exposing just a schema (for expr fusion)."""

    def __init__(self, fields: Sequence[Field]):
        self.schema = tuple(fields)


def _statement_expressions(statement: ast.Statement):
    if isinstance(statement, ast.Select):
        yield from _select_expressions(statement)
    elif isinstance(statement, ast.Update):
        for _, expr in statement.assignments:
            yield expr
        if statement.where is not None:
            yield statement.where
    elif isinstance(statement, ast.Delete):
        if statement.where is not None:
            yield statement.where
    elif isinstance(statement, ast.Insert):
        for row in statement.values:
            yield from row
        if statement.query is not None:
            yield from _select_expressions(statement.query)
    elif isinstance(statement, ast.CreateTableAs):
        yield from _select_expressions(statement.query)


def _select_expressions(select: ast.Select):
    for _, cte in select.ctes:
        yield from _select_expressions(cte)
    for item in select.items:
        if not isinstance(item.expr, ast.Star):
            yield item.expr
    if select.where is not None:
        yield select.where
    yield from select.group_by
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expr
    for item in select.from_items:
        yield from _from_item_expressions(item)
    if select.set_op is not None:
        yield from _select_expressions(select.set_op.right)


def _from_item_expressions(item: ast.FromItem):
    if isinstance(item, ast.SubqueryRef):
        yield from _select_expressions(item.query)
    elif isinstance(item, ast.TableFunctionRef):
        yield item.call
        for query in item.subquery_args:
            yield from _select_expressions(query)
    elif isinstance(item, ast.Join):
        yield from _from_item_expressions(item.left)
        yield from _from_item_expressions(item.right)
        if item.condition is not None:
            yield item.condition


def _statement_from_items(statement: ast.Statement):
    def walk_items(items):
        for item in items:
            yield item
            if isinstance(item, ast.Join):
                yield from walk_items([item.left, item.right])
            elif isinstance(item, ast.SubqueryRef):
                yield from walk_select(item.query)

    def walk_select(select: ast.Select):
        yield from walk_items(select.from_items)
        for _, cte in select.ctes:
            yield from walk_select(cte)
        if select.set_op is not None:
            yield from walk_select(select.set_op.right)

    if isinstance(statement, ast.Select):
        yield from walk_select(statement)
    elif isinstance(statement, ast.CreateTableAs):
        yield from walk_select(statement.query)
    elif isinstance(statement, ast.Insert) and statement.query is not None:
        yield from walk_select(statement.query)
