"""Chaos suite: injected worker crash/hang/OOM, cache stampedes, and
deadline storms against the multi-tenant service.

The acceptance invariants (ISSUE 6):

* every submitted query terminates with a **typed** outcome — no hangs,
  no silent drops, no untyped exceptions escaping ``execute``;
* **zero orphan workers** after the service shuts down;
* **zero cross-tenant leakage** — results and failures stay inside the
  tenant that caused them;
* shed load is **bounded and accounted**: everything not served is
  visible in the scheduler/detector counters.

Worker faults are real (SIGKILL, RLIMIT_AS, supervisor-killed hangs)
via :mod:`repro.testing.faults`, same machinery as the PR-4 suite.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.core import QFusorConfig
from repro.resilience.workers import active_worker_pids
from repro.service import QueryService, TenantQuota, TERMINAL_STATUSES
from repro.testing import FaultInjector, inject
from repro.udf import scalar_udf

from .conftest import make_numbers

RUN_SLOW = os.environ.get("RUN_SLOW") == "1"


# ----------------------------------------------------------------------
# Module-level UDFs (picklable by reference into worker processes)
# ----------------------------------------------------------------------


@scalar_udf
def c_inc(x: int) -> int:
    return x + 1


@scalar_udf
def c_victim(x: int) -> int:
    return x * 10


@scalar_udf
def c_spin(x: int) -> int:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        for _ in range(1000):
            x = (x * 31 + 7) % 1_000_003
    return x


def _child_pids() -> set:
    children = {p.pid for p in multiprocessing.active_children()}
    return children | set(active_worker_pids())


#: Children already alive when the current test began.  Both sources in
#: ``_child_pids`` are process-global, so without the subtraction a
#: worker orphaned by another module (seen under load: one leaked in
#: ``tests/resilience/test_workers.py``) fails every test here.
_FOREIGN: set = set()


@pytest.fixture(autouse=True)
def _sample_foreign_children():
    _FOREIGN.clear()
    _FOREIGN.update(_child_pids())


def _assert_no_orphans(timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while _child_pids() - _FOREIGN and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _child_pids() - _FOREIGN == set()


def _isolated_service(**kw):
    kw.setdefault("capacity", 4)
    kw.setdefault("queue_timeout_s", 5.0)
    kw.setdefault("isolation", "process")
    # Interpreted UDF execution: fused traces are runtime-compiled and
    # do not pickle into workers (the pool would just degrade back
    # in-process), so the chaos services run the unfused path where
    # every batch truly crosses the process boundary.
    kw.setdefault("config", QFusorConfig.disabled())
    kw.setdefault("worker_knobs", dict(
        pool_size=1, restart_backoff_s=0.001, heartbeat_interval_s=0.05,
        heartbeat_timeout_s=0.2,
    ))
    return QueryService(**kw)


def _provision(service, tenant_id, *udfs, quota=None, rows=8):
    session = service.add_tenant(tenant_id, quota)
    session.register_table(make_numbers(rows))
    for udf in udfs:
        session.register_udf(udf)
    return session


# ----------------------------------------------------------------------
# Worker faults: bulkheads
# ----------------------------------------------------------------------


class TestWorkerChaos:
    def test_crash_recovers_and_neighbour_tenant_unaffected(self):
        with _isolated_service() as service:
            _provision(service, "crashy", c_inc)
            _provision(service, "victim", c_victim)
            with inject(FaultInjector().worker_crash("c_inc", times=1)):
                hit = service.execute(
                    "crashy", "SELECT c_inc(a) AS v FROM numbers"
                )
            ok = service.execute(
                "victim", "SELECT c_victim(a) AS v FROM numbers"
            )
            # The crash retried on a fresh worker inside crashy's own
            # bulkhead; both tenants end in typed outcomes.
            assert hit.status in TERMINAL_STATUSES
            assert ok.ok
            assert ok.result.column("v").to_list()[0] == 0
            crashy_pool = service.session("crashy").adapter.workers
            victim_pool = service.session("victim").adapter.workers
            assert crashy_pool is not victim_pool
            assert crashy_pool.crashes >= 1
            assert victim_pool.crashes == 0
        _assert_no_orphans()

    def test_restart_budget_burns_in_one_bulkhead_only(self):
        with _isolated_service(worker_knobs=dict(
            pool_size=1, max_restarts=1, max_batch_retries=8,
            restart_backoff_s=0.001, quarantine_policy="fail",
            heartbeat_interval_s=0.05, heartbeat_timeout_s=0.2,
        )) as service:
            _provision(service, "burner", c_inc)
            _provision(service, "victim", c_victim)
            with inject(FaultInjector().worker_crash("c_inc", times=10)):
                outcome = service.execute(
                    "burner", "SELECT c_inc(a) AS v FROM numbers"
                )
            # Burner's pool exhausted its restart budget or quarantined
            # the batch — either way typed, never hung.
            assert outcome.status in {
                "worker_failed", "quarantined", "failed"
            }
            assert outcome.error is not None
            # Victim's bulkhead never restarted and still serves.
            assert service.session("victim").adapter.workers.restarts == 0
            assert service.execute(
                "victim", "SELECT c_victim(a) AS v FROM numbers"
            ).ok
        _assert_no_orphans()

    def test_hang_is_killed_by_supervisor_and_typed(self):
        with _isolated_service() as service:
            _provision(service, "t", c_inc)
            with inject(FaultInjector().worker_hang(
                "c_inc", seconds=30.0, times=1
            )):
                outcome = service.execute(
                    "t", "SELECT c_inc(a) AS v FROM numbers",
                    timeout_s=2.0,
                )
            assert outcome.status in TERMINAL_STATUSES
            assert outcome.status != "shed"
        _assert_no_orphans()

    def test_oom_worker_contained(self):
        with _isolated_service(worker_knobs=dict(
            pool_size=1, memory_limit_mb=128, restart_backoff_s=0.001,
            heartbeat_interval_s=0.05, heartbeat_timeout_s=0.2,
        )) as service:
            _provision(service, "t", c_inc)
            with inject(FaultInjector().worker_oom(
                "c_inc", alloc_bytes=1 << 30, times=1
            )):
                outcome = service.execute(
                    "t", "SELECT c_inc(a) AS v FROM numbers"
                )
            assert outcome.status in TERMINAL_STATUSES
        _assert_no_orphans()


# ----------------------------------------------------------------------
# Cache stampedes
# ----------------------------------------------------------------------


class TestCacheStampede:
    def test_single_flight_within_tenant(self):
        calls = []
        lock = threading.Lock()

        @scalar_udf(name="s_pause", deterministic=True)
        def s_pause(x: int) -> int:
            with lock:
                calls.append(x)
            time.sleep(0.02)  # widen the stampede window
            return x

        with QueryService(
            capacity=8, queue_timeout_s=5.0,
            config=QFusorConfig.cached(),
        ) as service:
            # Only deterministic UDFs: a nondeterministic call in the
            # query would (correctly) make the result uncacheable and
            # disable coalescing.
            _provision(service, "t", s_pause)
            sql = "SELECT s_pause(a) AS p FROM numbers"
            futures = [service.submit("t", sql) for _ in range(6)]
            outcomes = [f.result(timeout=15.0) for f in futures]
            assert all(o.ok for o in outcomes)
            rows = {tuple(o.result.column("p").to_list()) for o in outcomes}
            assert len(rows) == 1
            # Dogpile protection: one leader executed; followers shared
            # the flight or hit the result cache.  Without coalescing
            # the slow UDF would run 6 queries x 8 rows = 48 times.
            assert len(calls) < 48
            results = service.session("t").qfusor.caches.results
            assert results.shared + results.hits >= 1

    def test_same_sql_never_shares_results_across_tenants(self):
        @scalar_udf(name="f", deterministic=True)
        def f_a(x: int) -> int:
            return x + 1

        @scalar_udf(name="f", deterministic=True)
        def f_b(x: int) -> int:
            return x + 100

        with QueryService(
            capacity=8, queue_timeout_s=5.0,
            config=QFusorConfig.cached(),
        ) as service:
            for tid, udf in (("a", f_a), ("b", f_b)):
                session = service.add_tenant(tid)
                session.register_table(make_numbers(3))
                session.register_udf(udf)
            sql = "SELECT f(a) AS v FROM numbers"
            # Interleaved storm: identical SQL from both tenants at once.
            futures = [
                service.submit(tid, sql)
                for _ in range(4) for tid in ("a", "b")
            ]
            outcomes = [f.result(timeout=15.0) for f in futures]
            by_tenant = {"a": set(), "b": set()}
            for o in outcomes:
                assert o.ok
                by_tenant[o.tenant].add(
                    tuple(o.result.column("v").to_list())
                )
            assert by_tenant["a"] == {(1, 2, 3)}
            assert by_tenant["b"] == {(100, 101, 102)}


# ----------------------------------------------------------------------
# Deadline storms
# ----------------------------------------------------------------------


class TestDeadlineStorm:
    def test_storm_of_tiny_deadlines_all_typed_and_service_survives(self):
        with QueryService(capacity=2, queue_timeout_s=5.0) as service:
            _provision(service, "t", c_spin, c_inc)
            futures = [
                service.submit(
                    "t", "SELECT c_spin(a) AS v FROM numbers",
                    timeout_s=0.05,
                )
                for _ in range(6)
            ]
            outcomes = [f.result(timeout=30.0) for f in futures]
            for o in outcomes:
                assert o.status in TERMINAL_STATUSES
                assert o.status != "ok"
            assert {o.status for o in outcomes} <= {"timeout", "shed"}
            assert any(o.status == "timeout" for o in outcomes)
            # The service is still healthy afterwards.
            after = service.execute(
                "t", "SELECT c_inc(a) AS v FROM numbers"
            )
            assert after.ok
            stats = service.stats()
            assert stats["gate"]["active"] == 0
            assert stats["gate"]["waiting"] == 0


# ----------------------------------------------------------------------
# Mixed chaos: the acceptance invariants in one storm
# ----------------------------------------------------------------------


class TestMixedChaos:
    def test_every_query_terminates_typed_and_shed_is_accounted(self):
        injector = (
            FaultInjector()
            .worker_crash("c_inc", times=2)
            .worker_hang("c_victim", seconds=10.0, times=1)
        )
        with _isolated_service(
            capacity=2, queue_timeout_s=0.2, max_queue_depth=4,
        ) as service:
            _provision(service, "alpha", c_inc,
                       quota=TenantQuota(weight=2.0))
            _provision(service, "beta", c_victim,
                       quota=TenantQuota(lane="low"))
            jobs = []
            with inject(injector):
                for _ in range(8):
                    jobs.append(service.submit(
                        "alpha", "SELECT c_inc(a) AS v FROM numbers",
                        timeout_s=2.0,
                    ))
                    jobs.append(service.submit(
                        "beta", "SELECT c_victim(a) AS v FROM numbers",
                        timeout_s=2.0,
                    ))
                outcomes = [f.result(timeout=30.0) for f in jobs]

            assert len(outcomes) == 16
            for o in outcomes:  # invariant 1: typed termination
                assert o.status in TERMINAL_STATUSES, o
            # Invariant 3: no cross-tenant leakage — alpha rows are a+1,
            # beta rows are a*10, regardless of the storm around them.
            for o in outcomes:
                if not o.ok:
                    continue
                values = o.result.column("v").to_list()
                expected = (
                    [i + 1 for i in range(8)] if o.tenant == "alpha"
                    else [i * 10 for i in range(8)]
                )
                assert values == expected, o.tenant
            # Invariant 4: shed load is bounded and accounted.
            shed = sum(1 for o in outcomes if o.shed)
            served = sum(1 for o in outcomes if not o.shed)
            stats = service.stats()
            # Watermarks are off here, so every shed came through the
            # scheduler and is visible in the gate's rejected counter.
            assert shed == stats["gate"]["rejected"]
            assert served + shed == 16
            assert stats["gate"]["active"] == 0
            assert stats["gate"]["waiting"] == 0
        # Invariant 2: zero orphan workers.
        _assert_no_orphans()


# ----------------------------------------------------------------------
# Overload soak (slow; CI runs it with RUN_SLOW=1)
# ----------------------------------------------------------------------


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1 for soak tests")
class TestOverloadSoak:
    def test_sustained_overload_sheds_bounded_and_recovers(self):
        @scalar_udf
        def s_work(x: int) -> int:
            time.sleep(0.01)
            return x

        with QueryService(
            capacity=2, queue_timeout_s=0.1, max_queue_depth=8,
        ) as service:
            session = service.add_tenant("t")
            session.register_table(make_numbers(4))
            session.register_udf(s_work)
            outcomes = []
            lock = threading.Lock()
            stop = time.monotonic() + 3.0

            def client():
                while time.monotonic() < stop:
                    o = service.execute(
                        "t", "SELECT s_work(a) AS v FROM numbers"
                    )
                    with lock:
                        outcomes.append(o)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert outcomes
            assert all(o.status in TERMINAL_STATUSES for o in outcomes)
            served = [o for o in outcomes if o.ok]
            shed = [o for o in outcomes if o.shed]
            assert served, "soak must serve some load"
            assert shed, "overload must shed some load"
            # Bounded degradation: admitted queries keep a sane p95 even
            # while the service sheds — waiting is capped by the queue
            # timeout, execution by the work itself.
            waits = sorted(o.wait_s + o.exec_s for o in served)
            p95 = waits[int(0.95 * (len(waits) - 1))]
            assert p95 < 2.0, p95
            # Recovery: once the storm stops, the service drains clean.
            stats = service.stats()
            assert stats["gate"]["active"] == 0
            assert stats["gate"]["waiting"] == 0
            final = service.execute(
                "t", "SELECT s_work(a) AS v FROM numbers"
            )
            assert final.ok
        _assert_no_orphans()
