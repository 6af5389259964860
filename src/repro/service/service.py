"""The multi-tenant query service front-end.

:class:`QueryService` composes the primitives the earlier layers built
— per-tenant :class:`~repro.service.tenancy.TenantSession` slices
(isolated registries, caches, breaker boards, worker-pool bulkheads),
the :class:`~repro.service.scheduler.FairScheduler` (weighted-fair
admission with priority lanes), and the
:class:`~repro.service.shedding.OverloadDetector` (queue-depth and p95
watermarks) — into one serving surface:

    service = QueryService(capacity=8, queue_timeout_s=0.5)
    session = service.add_tenant("acme", TenantQuota(weight=2.0))
    session.register_table(table)
    session.register_udf(my_udf)
    outcome = service.execute("acme", "SELECT my_udf(a) FROM t")
    outcome.result if outcome.ok else outcome.retry_after_s

The contract: **every submitted query terminates with a typed
outcome** (:class:`~repro.service.outcomes.QueryOutcome`).  Shed load
is explicit — :class:`~repro.errors.ServiceOverloadError` classified
into a ``"shed"`` outcome with a retry-after hint — and all governance
interrupts, worker-pool failures, breaker refusals, and user-code
errors classify into their own statuses.  The chaos suite
(tests/service/test_chaos.py) holds this under injected worker
crashes, hangs, OOMs, cache stampedes, and deadline storms.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..errors import (
    CheckpointError,
    QueryInterrupt,
    RecoveryError,
    ReplicationError,
    ServiceOverloadError,
    TenantRecoveryError,
    UnknownTenantError,
    WalCorruptionError,
)
from ..obs import DEFAULT_WAIT_BUCKETS, METRICS, OBS
from .outcomes import QueryOutcome, classify_error
from .scheduler import FairScheduler
from .shedding import OverloadDetector, SheddingDecision
from .tenancy import TenantQuota, TenantSession

__all__ = ["QueryService", "RecoveryResults"]


class RecoveryResults(dict):
    """``{tenant_id: RecoveryReport}`` plus per-tenant failures.

    Behaves exactly like the plain dict :meth:`QueryService.
    recover_tenants` used to return (iteration, ``in``, equality with
    dicts all work), with one addition: ``errors`` maps each tenant
    whose directory failed to recover to its typed
    :class:`~repro.errors.TenantRecoveryError` — one corrupt directory
    must never take down the fleet restart, but it must never be
    silent either.
    """

    def __init__(self) -> None:
        super().__init__()
        self.errors: Dict[str, TenantRecoveryError] = {}


def _default_adapter_factory():
    from ..engines import MiniDbAdapter

    return MiniDbAdapter()


class QueryService:
    """Tenant-isolated, fairness-scheduled, overload-shedding front-end."""

    def __init__(
        self,
        adapter_factory: Optional[Callable[[], Any]] = None,
        *,
        capacity: int = 4,
        queue_timeout_s: Optional[float] = 1.0,
        max_queue_depth: Optional[int] = None,
        queue_depth_high: Optional[int] = None,
        p95_high_s: Optional[float] = None,
        config: Optional[Any] = None,
        isolation: Optional[str] = None,
        worker_knobs: Optional[Dict[str, Any]] = None,
        max_submit_threads: Optional[int] = None,
        durability_root: Optional[Any] = None,
        durability_knobs: Optional[Dict[str, Any]] = None,
        replication_knobs: Optional[Dict[str, Any]] = None,
    ):
        self._adapter_factory = adapter_factory or _default_adapter_factory
        # Per-tenant crash consistency: with a root set, every tenant's
        # adapter gets a WAL'd database directory at <root>/<tenant_id>,
        # and recover_tenants() warm-restarts the fleet from disk.
        self._durability_root = (
            Path(durability_root) if durability_root is not None else None
        )
        self._durability_knobs = dict(durability_knobs or {})
        # Defaults for every ReplicationPrimary this service creates
        # (``sync``, ``ack_timeout_s``, ``poll_interval_s``, ...);
        # per-tenant ``replicate_to=`` opts into replication at all.
        self._replication_knobs = dict(replication_knobs or {})
        # Hot standbys hosted by this service, by standby id.  Their
        # directories live under durability_root like any tenant's, but
        # carry role="standby" node meta so recover_tenants skips them.
        self._standbys: Dict[str, Any] = {}
        self.capacity = max(1, int(capacity))
        self.scheduler = FairScheduler(
            self.capacity,
            queue_timeout_s=queue_timeout_s,
            max_queue_depth=max_queue_depth,
        )
        self.detector = OverloadDetector(
            self.capacity,
            queue_depth_high=queue_depth_high,
            p95_high_s=p95_high_s,
        )
        self._config_template = config
        self._isolation = isolation
        self._worker_knobs = dict(worker_knobs or {})
        self._sessions: Dict[str, TenantSession] = {}
        self._sessions_lock = threading.Lock()
        # Tenant ids claimed by an in-flight add_tenant: reserved before
        # the adapter (and its durability WAL) is created, so two racing
        # add_tenant calls — or recover_tenants racing add_tenant — can
        # never open two WriteAheadLogs on the same tenant directory.
        self._reserved: set = set()
        # submit() threads block while their ticket waits in the
        # scheduler queue, so the pool must cover capacity plus the
        # deepest queue we are willing to hold open.
        if max_submit_threads is None:
            backlog = max_queue_depth if max_queue_depth is not None \
                else 4 * self.capacity
            max_submit_threads = self.capacity + backlog
        self._max_submit_threads = max(1, max_submit_threads)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def add_tenant(
        self,
        tenant_id: str,
        quota: Optional[TenantQuota] = None,
        *,
        config: Optional[Any] = None,
        isolation: Optional[str] = None,
        replicate_to: Optional[Any] = None,
    ) -> TenantSession:
        """Create a tenant session: fresh adapter, scoped caches, and —
        with ``isolation="process"`` — a private worker-pool bulkhead
        whose restart/quarantine budgets no other tenant can spend.

        ``replicate_to`` (one ``(host, port)``/``"host:port"`` target or
        a list of them — e.g. ``service.add_standby(...).address``)
        streams this tenant's WAL to hot standbys; requires
        ``durability_root``.  Knobs come from the service-wide
        ``replication_knobs`` (``sync=True`` makes commit acks wait for
        standby flush up to ``ack_timeout_s`` before degrading to
        async with a typed event).
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        if replicate_to is not None and self._durability_root is None:
            raise ValueError(
                "replicate_to requires durability_root (replication "
                "ships the tenant's WAL, which needs a WAL to exist)"
            )
        quota = quota if quota is not None else TenantQuota()
        # Reserve the id *before* building the adapter: attaching
        # durability opens (and appends to) <root>/<tenant_id>/wal.log,
        # and a second WriteAheadLog on a live tenant's directory would
        # corrupt the log the live manager is writing.
        with self._sessions_lock:
            if tenant_id in self._sessions or tenant_id in self._reserved:
                raise ValueError(f"tenant {tenant_id!r} already exists")
            self._reserved.add(tenant_id)
        session = None
        adapter = None
        try:
            adapter = self._adapter_factory()
            if (
                self._durability_root is not None
                and getattr(adapter, "durability", None) is None
            ):
                self._attach_durability(adapter, tenant_id)
            if replicate_to is not None:
                self._attach_replication(adapter, replicate_to)
            session = TenantSession(
                tenant_id,
                quota,
                adapter,
                config if config is not None else self._config_template,
            )
            effective_isolation = (
                isolation if isolation is not None else self._isolation
            )
            if effective_isolation == "process":
                session.adapter.enable_process_isolation(**self._worker_knobs)
            with self._sessions_lock:
                # Register with the scheduler before publishing the
                # session, so no execute() can find a session the
                # scheduler rejects.
                self.scheduler.register_tenant(tenant_id, quota)
                self._sessions[tenant_id] = session
                self._reserved.discard(tenant_id)
            return session
        except BaseException:
            with self._sessions_lock:
                self._reserved.discard(tenant_id)
            if session is not None:
                session.close()
            elif adapter is not None:
                close = getattr(adapter, "close", None)
                if close is not None:
                    close()
            raise

    def _attach_durability(self, adapter: Any, tenant_id: str) -> None:
        """Attach a per-tenant WAL'd directory at ``<root>/<tenant_id>``.

        The tenant id doubles as the directory name so a cold service
        can rediscover its fleet from disk; ids must therefore be plain
        path components when durability is on.
        """
        if (
            not tenant_id
            or tenant_id in (".", "..")
            or "/" in tenant_id
            or "\\" in tenant_id
        ):
            raise ValueError(
                f"tenant id {tenant_id!r} is not a valid directory name "
                f"(required when durability_root is set)"
            )
        from ..storage.durability import attach_to_adapter

        attach_to_adapter(
            adapter,
            self._durability_root / tenant_id,
            **self._durability_knobs,
        )

    def _attach_replication(self, adapter: Any, replicate_to: Any) -> None:
        from ..storage.replication import ReplicationPrimary

        manager = getattr(adapter, "durability", None)
        if manager is None:
            raise ValueError(
                "replicate_to requires the adapter to carry a durability "
                "manager (was durability_root set?)"
            )
        manager.replication = ReplicationPrimary(
            manager, replicate_to, **self._replication_knobs
        )

    # ------------------------------------------------------------------
    # Hot standbys + failover
    # ------------------------------------------------------------------

    def add_standby(
        self,
        standby_id: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        min_term: int = 0,
    ) -> Any:
        """Host a hot standby at ``<durability_root>/<standby_id>``.

        Returns the :class:`~repro.storage.replication.
        ReplicationStandby`; its ``.address`` is what a primary tenant's
        ``replicate_to=`` points at (here or on another service).  The
        standby serves no queries — it receives, verifies, applies, and
        acknowledges — until :meth:`promote` turns its directory into a
        normal tenant.
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        if self._durability_root is None:
            raise ValueError("add_standby requires durability_root")
        if (
            not standby_id
            or standby_id in (".", "..")
            or "/" in standby_id
            or "\\" in standby_id
        ):
            raise ValueError(
                f"standby id {standby_id!r} is not a valid directory name"
            )
        from ..storage.replication import ReplicationStandby

        with self._sessions_lock:
            if (
                standby_id in self._standbys
                or standby_id in self._sessions
                or standby_id in self._reserved
            ):
                raise ValueError(
                    f"standby {standby_id!r} collides with an existing "
                    f"tenant or standby"
                )
            self._reserved.add(standby_id)
        try:
            knobs = self._durability_knobs
            standby = ReplicationStandby(
                self._durability_root / standby_id,
                host=host,
                port=port,
                min_term=min_term,
                wal_fsync=knobs.get("wal_fsync", True),
                checkpoint_threshold=knobs.get(
                    "checkpoint_threshold", 4 << 20
                ),
            )
            with self._sessions_lock:
                self._standbys[standby_id] = standby
                self._reserved.discard(standby_id)
            return standby
        except BaseException:
            with self._sessions_lock:
                self._reserved.discard(standby_id)
            raise

    def standby(self, standby_id: str) -> Any:
        try:
            return self._standbys[standby_id]
        except KeyError:
            raise UnknownTenantError(standby_id) from None

    def promote(
        self,
        standby_id: str,
        quota: Optional[TenantQuota] = None,
        *,
        config: Optional[Any] = None,
        isolation: Optional[str] = None,
        replicate_to: Optional[Any] = None,
    ) -> TenantSession:
        """Fail over onto a hosted standby: fence, step up, serve.

        The standby fsyncs its bumped fencing term (any connection from
        the old primary's lineage is rejected from this point on — see
        DESIGN.md §15), then its directory is opened as a normal tenant:
        ordinary recovery replays the mirrored WAL and bumps the
        durability generation, and the returned session serves queries.
        ``replicate_to`` immediately re-arms replication from the new
        primary to a further standby.
        """
        with self._sessions_lock:
            standby = self._standbys.get(standby_id)
        if standby is None:
            raise UnknownTenantError(standby_id)
        started = time.perf_counter()
        standby.promote()
        with self._sessions_lock:
            self._standbys.pop(standby_id, None)
        session = self.add_tenant(
            standby_id, quota, config=config, isolation=isolation,
            replicate_to=replicate_to,
        )
        if OBS.metrics:
            METRICS.histogram("repro_repl_failover_seconds").observe(
                time.perf_counter() - started
            )
        return session

    def replication_status(self) -> Dict[str, Any]:
        """Streaming and lag state for every replicated tenant and every
        hosted standby."""
        primaries: Dict[str, Any] = {}
        for tenant_id, session in list(self._sessions.items()):
            manager = getattr(session.adapter, "durability", None)
            repl = getattr(manager, "replication", None)
            if repl is not None:
                primaries[tenant_id] = repl.status()
        with self._sessions_lock:
            standbys = {
                sid: standby.status()
                for sid, standby in self._standbys.items()
            }
        return {"primaries": primaries, "standbys": standbys}

    def recover_tenants(
        self, quota: Optional[TenantQuota] = None
    ) -> Dict[str, Any]:
        """Warm-restart: re-create a session for every tenant directory
        under ``durability_root`` not already being served.

        Each adapter's constructor-time recovery replays that tenant's
        WAL over its checkpoint, so tables, snapshot epochs, and UDF
        definition versions come back exactly as acknowledged before the
        crash.  Returns a :class:`RecoveryResults` — dict-compatible
        ``{tenant_id: RecoveryReport}`` for the tenants brought back,
        with ``.errors`` holding a typed
        :class:`~repro.errors.TenantRecoveryError` per tenant whose
        directory was too damaged to recover (bad checkpoint magic, a
        truncated WAL header, undecodable fencing meta...).  Damaged
        tenants are isolated: every healthy tenant still recovers and
        serves.  Directories whose node meta says ``role="standby"``
        are skipped — a mirrored log must only come back through
        :meth:`promote`, never as an implicit primary.
        """
        reports = RecoveryResults()
        root = self._durability_root
        if root is None or not root.is_dir():
            return reports
        from ..storage.replication import load_node_meta

        for child in sorted(root.iterdir()):
            if not child.is_dir():
                continue
            tenant_id = child.name
            if tenant_id in self._sessions or tenant_id in self._standbys:
                continue
            try:
                meta = load_node_meta(child)
            except ReplicationError as exc:
                reports.errors[tenant_id] = TenantRecoveryError(
                    tenant_id, exc
                )
                continue
            if meta is not None and meta.get("role") == "standby":
                continue
            try:
                session = self.add_tenant(tenant_id, quota)
            except ValueError:
                # Lost the race to a concurrent add_tenant: that call
                # owns the directory's WAL now; nothing to recover here.
                continue
            except (
                CheckpointError,
                WalCorruptionError,
                RecoveryError,
                ReplicationError,
                OSError,
            ) as exc:
                # One damaged directory must not take the fleet down
                # with it: surface the failure typed, keep recovering.
                reports.errors[tenant_id] = TenantRecoveryError(
                    tenant_id, exc
                )
                if OBS.metrics:
                    METRICS.counter(
                        "repro_service_tenant_recovery_failures_total",
                        tenant=tenant_id,
                    ).inc()
                continue
            manager = getattr(session.adapter, "durability", None)
            if manager is not None:
                reports[tenant_id] = manager.last_recovery
        if OBS.metrics and reports:
            METRICS.counter("repro_service_tenants_recovered_total").inc(
                len(reports)
            )
        return reports

    def remove_tenant(self, tenant_id: str) -> None:
        with self._sessions_lock:
            session = self._sessions.pop(tenant_id, None)
            self.scheduler.remove_tenant(tenant_id)
        if session is not None:
            session.close()

    def session(self, tenant_id: str) -> TenantSession:
        session = self._sessions.get(tenant_id)
        if session is None:
            raise UnknownTenantError(tenant_id)
        return session

    @property
    def tenants(self):
        return sorted(self._sessions)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute(
        self,
        tenant_id: str,
        sql: str,
        *,
        timeout_s: Optional[float] = None,
        row_budget: Optional[int] = None,
    ) -> QueryOutcome:
        """Run one query to a typed terminal outcome (never raises for
        anything the query itself did; only :class:`UnknownTenantError`
        — a caller bug, not a query failure — escapes)."""
        session = self.session(tenant_id)
        lane = session.quota.lane
        # Watermark shedding at the door: cheaper than queuing a ticket
        # we already know will be refused, and it protects the queue
        # itself from becoming the overload amplifier.
        decision = self.detector.assess(
            queue_depth=self.scheduler.waiting, lane=lane
        )
        if decision is not None:
            return self._shed_outcome(tenant_id, sql, decision)
        try:
            wait_s = self.scheduler.acquire(tenant_id)
        except ServiceOverloadError as exc:
            return self._finish(
                QueryOutcome(
                    tenant=tenant_id, sql=sql, status="shed", error=exc,
                    wait_s=getattr(exc, "waited_s", None) or 0.0,
                    retry_after_s=getattr(exc, "retry_after_s", None),
                )
            )
        started = time.perf_counter()
        try:
            context = session.make_context(timeout_s, row_budget)
            result = session.qfusor.execute(sql, context=context)
            exec_s = time.perf_counter() - started
            outcome = QueryOutcome(
                tenant=tenant_id, sql=sql, status="ok", result=result,
                wait_s=wait_s, exec_s=exec_s,
            )
        except (QueryInterrupt, Exception) as exc:
            exec_s = time.perf_counter() - started
            outcome = QueryOutcome(
                tenant=tenant_id, sql=sql, status=classify_error(exc),
                error=exc, wait_s=wait_s, exec_s=exec_s,
                retry_after_s=getattr(exc, "retry_after_s", None),
            )
        finally:
            exec_elapsed = time.perf_counter() - started
            self.scheduler.release(tenant_id, exec_elapsed)
            self.detector.note(exec_elapsed)
        session.note_query()
        return self._finish(outcome)

    def submit(
        self,
        tenant_id: str,
        sql: str,
        *,
        timeout_s: Optional[float] = None,
        row_budget: Optional[int] = None,
    ) -> "Future[QueryOutcome]":
        """Asynchronous :meth:`execute` on the service's thread pool."""
        self.session(tenant_id)  # fail fast on unknown tenants
        executor = self._ensure_executor()
        return executor.submit(
            self.execute, tenant_id, sql,
            timeout_s=timeout_s, row_budget=row_budget,
        )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("service is shut down")
        executor = self._executor
        if executor is None:
            with self._sessions_lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self._max_submit_threads,
                        thread_name_prefix="repro-service",
                    )
                executor = self._executor
        return executor

    # ------------------------------------------------------------------
    # Outcome bookkeeping
    # ------------------------------------------------------------------

    def _shed_outcome(self, tenant_id: str, sql: str,
                      decision: SheddingDecision) -> QueryOutcome:
        if OBS.metrics:
            METRICS.counter(
                "repro_service_shed_total",
                tenant=tenant_id, reason=decision.reason,
            ).inc()
        error = ServiceOverloadError(
            tenant=tenant_id,
            reason=decision.reason,
            queue_depth=decision.queue_depth,
            retry_after_s=decision.retry_after_s,
        )
        return self._finish(
            QueryOutcome(
                tenant=tenant_id, sql=sql, status="shed", error=error,
                retry_after_s=decision.retry_after_s,
            )
        )

    def _finish(self, outcome: QueryOutcome) -> QueryOutcome:
        if OBS.metrics:
            METRICS.counter(
                "repro_service_queries_total",
                tenant=outcome.tenant, outcome=outcome.status,
            ).inc()
            METRICS.histogram(
                "repro_service_wait_seconds", DEFAULT_WAIT_BUCKETS,
                tenant=outcome.tenant,
            ).observe(outcome.wait_s)
            if outcome.status != "shed":
                METRICS.histogram(
                    "repro_service_exec_seconds", tenant=outcome.tenant
                ).observe(outcome.exec_s)
        return outcome

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """One coherent snapshot: gate counters, per-tenant scheduling
        state, and the overload detector's current p95."""
        return {
            "gate": self.scheduler.stats(),
            "tenants": self.scheduler.tenant_stats(),
            "p95_s": self.detector.p95(),
            "shed_decisions": self.detector.shed_decisions,
        }

    def shutdown(self) -> None:
        """Drain the submit pool and close every tenant session (worker
        pools die here — the orphan scan runs after this)."""
        if self._closed:
            return
        self._closed = True
        executor = self._executor
        if executor is not None:
            executor.shutdown(wait=True)
            self._executor = None
        with self._sessions_lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            standbys = list(self._standbys.values())
            self._standbys.clear()
        for standby in standbys:
            standby.close()
        for session in sessions:
            session.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
