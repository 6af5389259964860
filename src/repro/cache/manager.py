"""The cache manager: three coordinated tiers behind one facade.

``CacheManager`` owns the plan cache, the UDF memoization cache, and the
query result cache for one :class:`~repro.core.qfusor.QFusor`, derives
every key through :mod:`repro.cache.fingerprint`, performs
snapshot-epoch/version bookkeeping, and reports hits, misses, stores,
and single-flight events into ``repro_cache_*`` metrics, trace events,
and ``QFusorReport.cache_events``.

The manager is deliberately engine-agnostic: it reaches the adapter only
through ``registry`` (UDF versions, memo attachment) and ``catalog``
(table schemas and snapshot epochs), both of which every adapter
exposes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from ..obs import OBS
from ..obs import tracer as obs_tracer
from . import fingerprint
from .memo import UdfMemoCache
from .plan_cache import PlanCache, PlanEntry
from .result_cache import ResultCache

__all__ = ["CacheManager", "CacheEvent", "ResultKey"]


@dataclass
class CacheEvent:
    """One cache interaction, recorded onto the query report."""

    tier: str    # "plan" | "udf_memo" | "result" | "trace"
    action: str  # "hit" | "miss" | "store" | "shared" | "lead" | "skip"
    detail: str = ""

    def __repr__(self) -> str:  # compact in report dumps
        suffix = f" {self.detail}" if self.detail else ""
        return f"<cache {self.tier}:{self.action}{suffix}>"


@dataclass
class ResultKey:
    """A fully-derived result-cache key plus its eligibility context."""

    key: Tuple
    is_udf_query: bool


class CacheManager:
    """Plan / UDF-memo / result caches for one QFusor client."""

    def __init__(self, adapter: Any, config: Any):
        self.adapter = adapter
        self.config = config
        self._config_fp = fingerprint.config_fingerprint(config)
        #: Tenant/cache isolation scope: an explicit key element (beyond
        #: its participation in the config fingerprint) so scoped entries
        #: are structurally unreachable from any other scope.
        self.scope = getattr(config, "cache_scope", None)
        self.plan: Optional[PlanCache] = (
            PlanCache() if config.plan_cache else None
        )
        self.memo: Optional[UdfMemoCache] = (
            UdfMemoCache() if config.udf_memo else None
        )
        self.results: Optional[ResultCache] = (
            ResultCache() if config.result_cache else None
        )
        if self.memo is not None:
            adapter.registry.memo = self.memo
            # UDF version bumps invalidate dependent memo entries eagerly
            # (result/plan entries rotate by key, but memo entries for
            # the old version would otherwise linger until evicted).
            adapter.registry.add_version_listener(self._on_udf_version)

    # ------------------------------------------------------------------
    # Activity / lifecycle
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Any tier enabled?  The disabled path costs this one check."""
        return (
            self.plan is not None
            or self.memo is not None
            or self.results is not None
        )

    def _on_udf_version(self, name: str, version: int) -> None:
        self.memo.invalidate_udf(name)

    def close(self) -> None:
        """Detach from the adapter's registry: unsubscribe the version
        listener and take the memo tier back out, unless a later client
        has attached its own since."""
        if self.memo is None:
            return
        registry = self.adapter.registry
        registry.remove_version_listener(self._on_udf_version)
        if registry.memo is self.memo:
            registry.memo = None

    def clear(self) -> None:
        for tier in (self.plan, self.memo, self.results):
            if tier is not None:
                tier.clear()

    # ------------------------------------------------------------------
    # Write tracking (snapshot-epoch invalidation)
    # ------------------------------------------------------------------

    @contextmanager
    def note_write(self, written: Sequence[str]) -> Iterator[None]:
        """Around a DML statement writing the tables ``written``:
        afterwards, touch each whose snapshot epoch did not move while
        it ran.

        Minidb-family DML bumps the epoch itself, and that bump is the
        statement's one WAL record.  A touch covers engines with external
        storage (the sqlite3 adapter), whose INSERT never reaches our
        catalog, and statements that failed before writing.
        """
        catalog = self.adapter.catalog
        before = [catalog.epoch(name) for name in written]
        try:
            yield
        finally:
            for name, epoch in zip(written, before):
                if catalog.epoch(name) == epoch:
                    catalog.touch(name)
            if OBS.tracing and written:
                obs_tracer.add_event(
                    "cache_epoch_bump", tables=",".join(written)
                )

    # ------------------------------------------------------------------
    # Key derivation
    # ------------------------------------------------------------------

    def _referenced_udf_versions(
        self, udf_names: Sequence[str]
    ) -> Optional[Tuple]:
        """((name, version, deterministic), ...) or None when any
        referenced UDF is not annotated deterministic."""
        registry = self.adapter.registry
        versions = []
        for name in udf_names:
            registered = registry.lookup(name)
            if registered is None:
                continue
            if not registered.definition.deterministic_annotated:
                return None
            versions.append((name, registered.version))
        return tuple(versions)

    def _table_epochs(self, tables: Sequence[str]) -> Optional[Tuple]:
        catalog = self.adapter.catalog
        epochs = []
        for name in tables:
            if name not in catalog:
                return None  # unknown table: let execution raise normally
            epochs.append((name, catalog.epoch(name)))
        return tuple(epochs)

    def _table_schemas(self, tables: Sequence[str]) -> Optional[Tuple]:
        catalog = self.adapter.catalog
        schemas = []
        for name in tables:
            if name not in catalog:
                return None
            schema = catalog.get(name).schema
            schemas.append((name, fingerprint.digest(repr(schema))))
        return tuple(schemas)

    def result_key(
        self, parsed: Any, udf_names: Sequence[str]
    ) -> Optional[ResultKey]:
        """Derive the result-cache key, or None when ineligible.

        ``parsed`` is a :class:`~repro.core.qfusor.ParsedStatement`: its
        fingerprint and tables were derived once per SQL text; epochs
        and UDF versions are read here, on every call.

        Eligible: result tier enabled, the statement is a SELECT over
        known tables, and every referenced UDF is explicitly annotated
        deterministic (unannotated UDFs conservatively disqualify)."""
        if self.results is None or parsed.tables is None:
            return None  # tier off, or not a SELECT
        epochs = self._table_epochs(parsed.tables)
        if epochs is None:
            return None
        versions = self._referenced_udf_versions(udf_names)
        if versions is None:
            return None
        # Database generation: bumped by every durability recovery, so a
        # cache that outlives an adapter restart (warm service restart)
        # can never serve an entry keyed before the crash — even if an
        # unlogged in-memory epoch bump died with the old process.
        generation = self.adapter.catalog.generation
        key = (
            self.scope,
            self.adapter.name,
            generation,
            parsed.fingerprint,
            epochs,
            versions,
            self._config_fp,
        )
        return ResultKey(key=key, is_udf_query=bool(udf_names))

    def plan_key(
        self, parsed: Any, udf_names: Sequence[str]
    ) -> Optional[Tuple]:
        """Derive the plan-cache key, or None when ineligible.

        Unlike result keys, plan keys use table *schema* fingerprints
        (plans survive data changes) and do not require determinism
        annotations (a plan is not a result — replanning the same text
        yields the same plan regardless of UDF purity)."""
        if self.plan is None or parsed.tables is None:
            return None
        schemas = self._table_schemas(parsed.tables)
        if schemas is None:
            return None
        registry = self.adapter.registry
        versions = tuple(
            (name, registry.version_of(name)) for name in udf_names
        )
        return (
            self.scope,
            self.adapter.name,
            parsed.fingerprint,
            schemas,
            versions,
            self._config_fp,
        )

    # ------------------------------------------------------------------
    # Tier operations (with event/report bookkeeping)
    # ------------------------------------------------------------------

    def record(self, report: Any, tier: str, action: str, detail: str = ""):
        event = CacheEvent(tier=tier, action=action, detail=detail)
        if report is not None:
            report.cache_events.append(event)
        if OBS.tracing:
            obs_tracer.add_event(
                f"cache_{action}", tier=tier, detail=detail
            )
        return event

    def plan_lookup(self, key: Tuple, report: Any) -> Optional[PlanEntry]:
        entry = self.plan.lookup(key, self.adapter.registry)
        self.record(
            report, "plan", "hit" if entry is not None else "miss"
        )
        return entry

    def plan_store(self, key: Tuple, entry: PlanEntry, report: Any) -> None:
        self.plan.store(key, entry)
        self.record(report, "plan", "store")

    def plan_invalidate(self, key: Tuple, report: Any) -> None:
        if self.plan is not None and self.plan.invalidate(key):
            self.record(report, "plan", "invalidate")

    def result_get_or_execute(
        self,
        rkey: ResultKey,
        report: Any,
        execute: Callable[[], Tuple[Any, bool]],
    ) -> Tuple[Any, str]:
        return self.results.get_or_execute(
            rkey.key,
            execute,
            on_event=lambda action: self.record(report, "result", action),
        )

    @staticmethod
    def storeable(report: Any) -> bool:
        """Population policy: only clean, undegraded runs are cached.

        A run that de-optimized, recovered rows, bypassed an open
        breaker, or saw worker incidents may have produced
        policy-dependent output (and signals instability regardless);
        fault-injection runs never populate.
        """
        from ..resilience import runtime

        if runtime.FAULTS.armed:
            return False
        return not (
            report.deopt_events
            or report.row_events
            or report.breaker_bypass
            or report.worker_events
        )
