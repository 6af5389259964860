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

Queries without UDFs pass through untouched, and so does a small UDF
SELECT on first sight: the tier gate (:meth:`QFusor._tier`) pays for the
pipeline only once a statement is hot or big enough to earn it back.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Union

from ..cache import CacheManager
from ..cache.fingerprint import sql_fingerprint, statement_tables
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

#: Bounded-LRU size of the compiled-trace cache.
TRACE_CACHE_CAPACITY = 256
#: Bounded-LRU size of the tier gate's table of statements seen cold.
SIGHTINGS_CAPACITY = 1024


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
    #: The tier gate's decision and why, e.g. ``"cold: first sight, est.
    #: saving 0.5 ms < prepare 1.9 ms"`` or ``"prepare: second sight"``;
    #: empty when the gate was not consulted (plan-cache hit, a walk that
    #: starts at the floor).
    tier: str = ""

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


@dataclass
class Rung:
    """One way of answering a query.  The ladder is a lazy sequence of
    these, highest first, walked by :meth:`QFusor._walk`."""

    #: "translated" | "fused" | "unfused".
    name: str
    #: Dispatches this rung's statement or plan to the engine.
    run: Callable[[], Table]
    #: UDFs blamed when ``run`` faults.  Empty marks the floor: the
    #: engine's own path has nothing left to de-optimize, so its fault
    #: is genuine and propagates.
    udfs: Sequence[str] = ()
    #: What the plan cache stores once ``run`` has come back clean.
    entry: Optional[PlanEntry] = None


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
            self.config.trace_cache, capacity=TRACE_CACHE_CAPACITY
        )
        self.fuser = PlanFuser(
            engine.registry, engine.resolver, self.cost_model,
            self.heuristics, self.config, self.cache,
        )
        # Multi-tier caching subsystem (plan / UDF memo / result); all
        # tiers default off, so `caches.active` is the only cost the
        # uncached path pays.
        self.caches = CacheManager(self.adapter, self.config)
        # The tier gate's memory: fingerprints of SELECTs that ran cold.
        self._sightings: "OrderedDict[Any, None]" = OrderedDict()
        self._sightings_lock = threading.Lock()
        # Fused UDFs must reach the engine itself (the sqlite3 adapter,
        # for example, registers through create_function).
        self.fuser.register_hook = engine.register_udf
        # Per-query report state is thread-local (and mirrored onto the
        # governed QueryContext) so concurrent queries sharing one
        # QFusor can never read each other's reports.
        self._reports = threading.local()
        self._last_context: Optional[QueryContext] = None
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
                engine.registry, engine.translate_dialect
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
            # DML/DDL: run normally; dependent result-cache entries retire
            # because the written tables' snapshot epochs move.
            with caches.note_write(statement):
                return self._run_pipeline(statement, report)
        udfs = referenced_udfs(statement, self.adapter.registry)
        rkey = caches.result_key(statement, sql_text, udfs)
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
            return self._walk(report, [self._floor(statement)])
        report.is_udf_query = True

        # Circuit-breaker gate: a query referencing an open-breaker UDF
        # either fails fast or starts its walk at the floor (policy).
        if not self._admit_breakers(statement, report):
            return self._walk(report, [self._floor(statement)])

        pkey = None
        if self.caches.active and isinstance(statement, ast.Select):
            pkey = self.caches.plan_key(
                statement, referenced_udfs(statement, self.adapter.registry)
            )
        return self._walk(
            report, self._ladder(statement, report, pkey), pkey
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
        refused = board.refusing(
            referenced_udfs(statement, self.adapter.registry)
        )
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

    # ------------------------------------------------------------------
    # The ladder: rungs as data, prepared lazily, walked by one driver
    # ------------------------------------------------------------------

    def _ladder(
        self,
        statement: ast.Statement,
        report: QFusorReport,
        pkey: Optional[tuple],
    ) -> Iterator[Rung]:
        """The rungs for one UDF statement, highest first.

        A generator, so a preparer (plan-cache lookup, translate, fuse)
        runs only when the walk reaches its rung: a clean translated run
        never plans or fuses, and a faulted one fuses afterwards.  A
        statement the tier gate keeps cold yields the floor alone.
        """
        entry = None
        if pkey is not None:
            entry = self.caches.plan_lookup(pkey, report)
        hit = entry is not None
        if hit:
            # A plan-cache hit: parse/probe/plan/fuse all skipped.
            self._adopt(report, entry, "plan-cache")
        elif not self._tier(statement, report, pkey):
            yield self._floor(statement)
            return
        elif self.translator is not None:
            # Froid-style translation first: when every UDF reference
            # compiles to SQL, the UDF boundary disappears and fusion
            # has nothing left to do.
            entry = self._translate(statement, report)
        if entry is not None:
            yield from self._rungs_of(entry, statement, store=not hit)
            if entry.kind != "translated":
                return
        # Reached by untranslatable statements, and by a walk falling
        # off a faulted translated rung.
        if (
            isinstance(statement, ast.Select)
            and self.adapter.supports_plan_dispatch
        ):
            entry = self._fuse_plan(statement, report)
        else:
            entry = self._rewrite(statement, report)
        yield from self._rungs_of(entry, statement)

    def _floor(self, statement: ast.Statement) -> Rung:
        """The last rung of every ladder: the engine's own path."""
        return Rung("unfused", lambda: self.adapter.execute_sql(statement))

    def _tier(
        self,
        statement: ast.Statement,
        report: QFusorReport,
        pkey: Optional[tuple],
    ) -> bool:
        """The tier gate: prepare this statement now, or run it cold?

        Like a tracing JIT waiting for a loop to get hot, a SELECT is
        translated, planned, fused and compiled only on its second
        sighting, or on its first when one execution's estimated
        boundary saving already pays for the preparation.  Whatever the
        estimate cannot size prepares eagerly, and ``cost_based=False``
        prepares everything (heuristics rule 1).
        """
        if not self.config.cost_based:
            return self._decide(report, "prepare", "cost_based off")
        if not isinstance(statement, ast.Select):
            return self._decide(report, "prepare", "DML")
        policy = self.config.row_error_policy
        if policy != "reinterpret":
            # null / skip / raise exist only on the fused rung.
            return self._decide(report, "prepare", f"row_error_policy={policy}")
        if any(
            isinstance(item, ast.TableFunctionRef)
            for item in _statement_from_items(statement)
        ):
            return self._decide(report, "prepare", "table-function source")
        rows = 0
        for name in statement_tables(statement):
            count = self.adapter.row_count(name)
            if count is None:
                return self._decide(report, "prepare", f"unsized table {name}")
            rows += count
        sites = udf_call_sites(statement, self.adapter.registry)
        saving = self.cost_model.boundary_saving(max(rows, 1), sites)
        cost = self.cost_model.prepare_cost(sites)
        big = saving >= cost
        estimate = (
            f"first sight, est. saving {saving * 1e3:.3g} ms "
            f"{'>=' if big else '<'} prepare {cost * 1e3:.3g} ms"
        )
        if big:
            return self._decide(report, "prepare", estimate)
        key = pkey if pkey is not None else sql_fingerprint(statement)
        with self._sightings_lock:
            seen = key in self._sightings
            self._sightings[key] = None
            self._sightings.move_to_end(key)
            if len(self._sightings) > SIGHTINGS_CAPACITY:
                self._sightings.popitem(last=False)
        if seen:
            return self._decide(report, "prepare", "second sight")
        return self._decide(report, "cold", estimate)

    @staticmethod
    def _decide(report: QFusorReport, decision: str, reason: str) -> bool:
        """Record a tier decision; True when it is to prepare."""
        report.tier = f"{decision}: {reason}"
        if OBS.metrics:
            METRICS.counter("repro_tier_total", decision=decision).inc()
        if OBS.tracing:
            obs_tracer.add_event("tier", decision=decision, reason=reason)
        return decision == "prepare"

    def _rungs_of(
        self, entry: PlanEntry, statement: ast.Statement, store: bool = True
    ) -> Iterator[Rung]:
        """The rungs a plan entry stands for; ``store`` is off for an
        entry the plan cache itself served.  The originals were never
        mutated by fusion, so the floor below a fused rung runs the pure
        per-UDF path."""
        cacheable = entry if store else None
        if entry.kind == "translated":
            # No floor of its own: the fuse stage supplies the rungs below.
            name, udfs = "translated", tuple(entry.translated)
        elif entry.fused:
            name, udfs = "fused", tuple(entry.fused_names())
        else:
            # Nothing fused, so nothing to de-optimize: the prepared
            # plan or statement is itself the floor.
            name, udfs = "unfused", ()
        if entry.kind == "plan":
            yield Rung(
                name,
                lambda: self.adapter.execute_plan(entry.fused_planned),
                udfs,
                cacheable,
            )
            floor = Rung(
                "unfused", lambda: self.adapter.execute_plan(entry.original)
            )
        else:
            yield Rung(
                name,
                lambda: self.adapter.execute_sql(entry.rewritten),
                udfs,
                cacheable,
            )
            floor = self._floor(statement)
        if name == "fused":
            yield floor

    def _adopt(
        self, report: QFusorReport, entry: PlanEntry, source: str = ""
    ) -> None:
        """Reflect a plan entry in the report, whichever preparer
        (``source``) produced it."""
        report.fused = list(entry.fused)
        if entry.kind == "plan":
            report.sections = list(entry.sections)
            report.plan_before = entry.plan_before
            report.plan_after = entry.plan_after
            return
        report.rewritten_sql = to_sql(entry.rewritten)
        if entry.kind == "translated":
            report.translated = list(entry.translated)
            report.translate_events.append(
                TranslateEvent(tuple(entry.translated), "hit", source)
            )
            if OBS.metrics:
                METRICS.counter("repro_translate_total", outcome="hit").inc()

    # -- preparers -------------------------------------------------------

    def _translate(
        self, statement: ast.Statement, report: QFusorReport
    ) -> Optional[PlanEntry]:
        """Compile every UDF reference away, or return None to fuse.

        All-or-nothing per statement: a single untranslatable reference
        keeps the whole query on the fusion rungs (mixing translated
        and boundary-crossing UDFs in one statement buys nothing — the
        boundary is still paid).
        """
        sp = obs_tracer.span_start("translate") if OBS.tracing else None
        try:
            outcome = self.translator.translate_statement(
                statement, self.adapter.catalog
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
        entry = PlanEntry(
            kind="translated",
            rewritten=outcome.statement,
            translated=sorted(outcome.translated),
        )
        self._adopt(report, entry)
        if sp is not None:
            obs_tracer.span_end(sp, translated=len(entry.translated))
        return entry

    def _fuse_plan(
        self, statement: ast.Select, report: QFusorReport
    ) -> PlanEntry:
        """Path 2, steps 1-3: probe the engine's optimizer, then
        discover, optimize and JIT-compile fused sections of its plan."""
        sp = obs_tracer.span_start("plan") if OBS.tracing else None
        planned = self.adapter.explain_plan(statement)
        plan_before = explain_text(planned)
        if sp is not None:
            obs_tracer.span_end(sp)

        # One "fuse" span: the jit_compile span nests inside, opened by
        # TraceCache on a compile miss.
        sp = obs_tracer.span_start("fuse") if OBS.tracing else None
        start = time.perf_counter()
        graph = build_dfg(planned, self.adapter.resolver)
        sections = discover_sections(graph, self.cost_model, self.config)
        report.fus_optim_seconds = time.perf_counter() - start

        outcome = self.fuser.fuse_query(planned)
        report.codegen_seconds = outcome.codegen_seconds
        report.cache_hits = outcome.cache_hits
        entry = PlanEntry(
            kind="plan",
            original=planned,
            fused_planned=outcome.planned,
            fused=outcome.fused,
            sections=sections,
            plan_before=plan_before,
            plan_after=explain_text(outcome.planned),
        )
        self._adopt(report, entry)
        self._observe_prepare(statement, report)
        if sp is not None:
            obs_tracer.span_end(
                sp,
                sections=len(sections),
                fused=len(entry.fused),
                cache_hits=report.cache_hits,
            )
        return entry

    def _rewrite(
        self, statement: ast.Statement, report: QFusorReport
    ) -> PlanEntry:
        """Path 1: fuse at the expression level and rewrite the SQL
        (4.2.5) — for engines without plan dispatch, and for DML."""

        def fuse_expr(expr: ast.Expr, fields: Sequence[Field]) -> ast.Expr:
            outcome = FusionOutcome(None)
            fused = self.fuser._fuse_expr(expr, _SchemaHolder(fields), outcome)
            report.fused.extend(outcome.fused)
            report.cache_hits += outcome.cache_hits
            return fused

        sp = obs_tracer.span_start("fuse") if OBS.tracing else None
        start = time.perf_counter()
        rewritten = rewrite_statement(
            statement, fuse_expr, self.adapter.catalog
        )
        report.codegen_seconds = time.perf_counter() - start
        entry = PlanEntry(
            kind="sql", rewritten=rewritten, fused=list(report.fused)
        )
        self._adopt(report, entry)
        self._observe_prepare(statement, report)
        if sp is not None:
            obs_tracer.span_end(
                sp, fused=len(entry.fused), cache_hits=report.cache_hits
            )
        return entry

    def _observe_prepare(
        self, statement: ast.Statement, report: QFusorReport
    ) -> None:
        """Teach the tier gate what this preparation cost per call site."""
        self.cost_model.observe_prepare(
            report.total_overhead_seconds,
            udf_call_sites(statement, self.adapter.registry),
        )

    # -- the driver ------------------------------------------------------

    def _walk(
        self,
        report: QFusorReport,
        rungs: Iterable[Rung],
        pkey: Optional[tuple] = None,
    ) -> Table:
        """Run rungs top-down until one answers — the one deopt rule.

        A fault on a rung that has UDFs to blame de-optimizes: blame
        them, record the :class:`DeoptEvent`, fall to the next rung.
        Query interrupts and whole-query timeouts propagate (the time is
        simply gone), as does everything when ``config.deopt`` is off.
        A plan entry is cached only by a walk that never de-optimized.
        """
        for rung in rungs:
            try:
                result = self._run_rung(rung, report)
            except (QueryTimeoutError, Exception) as exc:
                if not rung.udfs:
                    # The unfused path fails too: the fault is genuine
                    # (a user UDF raising), not an optimization artifact.
                    if report.deopt_events:
                        report.deopt_events[-1].recovered = False
                    raise
                if isinstance(exc, QueryTimeoutError):
                    if not self._timeout_retry_allowed(exc, rung):
                        raise
                elif not self.config.deopt:
                    raise
                self._blame(rung, exc, report, pkey)
                continue
            if (
                rung.entry is not None
                and pkey is not None
                and not report.deopted
            ):
                self.caches.plan_store(pkey, rung.entry, report)
            return result
        raise ReproError("ladder ended without a floor rung")

    def _run_rung(self, rung: Rung, report: QFusorReport) -> Table:
        """Dispatch one rung; however it ends, the row-level and
        adapter-side events it caused reach the report."""
        context, scope = None, contextlib.nullcontext()
        if rung.name == "fused":
            context = ResilienceContext(self.config.row_error_policy)
            scope = activate(context)
        try:
            with scope:
                return rung.run()
        finally:
            if context is not None:
                report.row_events.extend(context.row_events)
            self._drain_runtime_events(report)

    def _timeout_retry_allowed(
        self, exc: QueryTimeoutError, rung: Rung
    ) -> bool:
        """Whether a timeout on ``rung`` warrants one retry lower down.

        Only when a fused trace is the suspect (a per-batch cap fired
        inside a UDF this rung fused), deopt is on, and the query
        deadline still has slack — a whole-query timeout means the time
        is simply gone, so retrying would just time out again.  A
        translated statement has no UDF boundary left to blame at all.
        """
        if not (self.config.deopt and self.config.timeout_deopt_retry):
            return False
        if rung.name != "fused" or exc.udf_name not in rung.udfs:
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

    def _blame(
        self,
        rung: Rung,
        exc: BaseException,
        report: QFusorReport,
        pkey: Optional[tuple],
    ) -> None:
        """De-optimize a faulted rung: make sure neither this client nor
        the plan cache serves it again, and record the DeoptEvent."""
        if rung.name == "translated":
            # Poison the translations so later queries go straight to
            # fusion (until the UDF is re-registered).
            error = f"{type(exc).__name__}: {exc}"
            self.translator.poison(rung.udfs, error)
            report.translated = []
            report.translate_events.append(
                TranslateEvent(tuple(rung.udfs), "deopt", error)
            )
            event = DeoptEvent(udf_names=tuple(rung.udfs), error=error)
            if OBS.metrics:
                METRICS.counter("repro_translate_total", outcome="deopt").inc()
        else:
            # Invalidate, blocklist and unregister the fused trace(s).
            # UdfExecutionError and QueryTimeoutError both carry udf_name.
            if getattr(exc, "udf_name", None) in rung.udfs:
                targets = [exc.udf_name]
            else:
                targets = list(rung.udfs)
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
            event = DeoptEvent(
                udf_names=tuple(targets),
                error=repr(exc),
                invalidated=tuple(invalidated),
                blocklisted=blocked,
            )
        if pkey is not None:
            # A cached entry that served this rung is disproved.
            self.caches.plan_invalidate(pkey, report)
        # The event is what keeps the rest honest: storeable() refuses to
        # cache the degraded run, report.deopted flips, and dashboards
        # counting deopts see translated-path faults too.
        report.deopt_events.append(event)
        if OBS.metrics:
            METRICS.counter("repro_deopt_total").inc()
        if OBS.tracing:
            obs_tracer.add_event(
                "translate_deopt" if rung.name == "translated" else "deopt",
                udfs=",".join(event.udf_names),
                error=type(exc).__name__,
            )

    def _drain_runtime_events(self, report: QFusorReport) -> None:
        """Move adapter-side worker incidents into the report."""
        workers = self.adapter.workers
        if workers is not None:
            report.worker_events.extend(workers.drain_incidents())

    def analyze(self, sql: Union[str, ast.Statement]) -> QFusorReport:
        """Run the pipeline without executing; returns the report."""
        statement = parse(sql) if isinstance(sql, str) else sql
        sql_text = sql if isinstance(sql, str) else to_sql(statement)
        report = QFusorReport(sql=sql_text)
        if isinstance(statement, ast.Select) and self._involves_udfs(statement):
            report.is_udf_query = True
            self._fuse_plan(statement, report)
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
        table = self.adapter.catalog.get(table_name)
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
        self._rewrite(parse(sql), report)
        self.last_report = report
        return report.rewritten_sql

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

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


def referenced_udfs(statement: ast.Statement, registry: Any) -> List[str]:
    """Lower-cased names of the registered UDFs ``statement`` calls, in
    first-reference order."""
    names: List[str] = []
    for expr in _statement_expressions(statement):
        for node in ast.walk_expr(expr):
            if (
                isinstance(node, ast.FunctionCall)
                and node.name in registry
                and node.lowered_name not in names
            ):
                names.append(node.lowered_name)
    return names


def udf_call_sites(statement: ast.Statement, registry: Any) -> int:
    """How many registered-UDF calls ``statement`` makes, repeats
    included."""
    return sum(
        1
        for expr in _statement_expressions(statement)
        for node in ast.walk_expr(expr)
        if isinstance(node, ast.FunctionCall) and node.name in registry
    )


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
