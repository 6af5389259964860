"""Process-isolated worker pool: supervision, crashes, quarantine.

Every failure in here is real — workers are SIGKILLed, exceed genuine
``RLIMIT_AS`` caps, or sleep past their deadline slack and get killed by
the supervisor.  No mocks.  Each test asserts it leaves no orphan
worker processes behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import RowStoreAdapter
from repro.errors import (
    BatchQuarantinedError,
    QueryCancelledError,
    QueryTimeoutError,
    WorkerCrashError,
    WorkerRestartBudgetError,
)
from repro.resilience import QueryContext
from repro.resilience.workers import (
    WorkerPool,
    WorkerQuarantineWarning,
    active_worker_pids,
)
from repro.storage import Column, Table
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf import scalar_udf


# ----------------------------------------------------------------------
# Module-level UDFs (picklable by reference into workers)
# ----------------------------------------------------------------------


@scalar_udf
def w_inc(x: int) -> int:
    return x + 1


@scalar_udf
def w_shout(val: str) -> str:
    return val.upper()


@scalar_udf
def w_suicide(x: int) -> int:
    # Kills the hosting process — but only when that process is a
    # worker, so the in-process quarantine fallback stays survivable.
    import multiprocessing as mp
    if mp.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return x + 1


@scalar_udf
def w_stall(x: int) -> int:
    # Wedges only inside a worker; instant in-process.
    import multiprocessing as mp
    if mp.parent_process() is not None:
        time.sleep(30.0)
    return x * 2


@scalar_udf
def w_hog(x: int) -> int:
    # Allocates ~1 GiB — only inside a worker (which carries a small
    # RLIMIT_AS cap in these tests).
    import multiprocessing as mp
    if mp.parent_process() is not None:
        sink = bytearray(1 << 30)
        return x + len(sink)
    return x


@scalar_udf
def w_bad(x: int) -> int:
    raise ValueError(f"bad value {x}")


def _child_pids() -> set:
    children = {p.pid for p in multiprocessing.active_children()}
    return children | set(active_worker_pids())


def _assert_no_children(foreign=frozenset(), timeout: float = 5.0) -> None:
    """No child of this process is alive, bar the ``foreign`` PIDs that
    were already running when the test began.  Both sources are
    process-global: without the subtraction one orphan fails every later
    check in the session (``tests/service/test_chaos.py`` included)
    instead of the one test that leaked it."""
    deadline = time.monotonic() + timeout
    while _child_pids() - foreign and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _child_pids() - foreign == set()


@pytest.fixture
def iso():
    """Factories for pools/adapters, torn down with orphan assertions."""

    class Iso:
        def __init__(self):
            self.pools = []
            self.adapters = []

        def pool(self, **kw):
            kw.setdefault("restart_backoff_s", 0.001)
            p = WorkerPool(**kw)
            self.pools.append(p)
            return p

        def adapter(self, **kw):
            a = RowStoreAdapter(isolation="process")
            self.adapters.append(a)
            a.workers.configure(**kw)
            return a

    env = Iso()
    env.foreign = _child_pids()
    yield env
    for a in env.adapters:
        a.close()
    for p in env.pools:
        p.shutdown()
    _assert_no_children(env.foreign)


def _table(n: int = 8) -> Table:
    return Table.from_rows(
        "wt", [("x", SqlType.INT), ("s", SqlType.TEXT)],
        [(i, f"row {i}") for i in range(n)],
    )


def run_value(pool, udf, args, fallback=None):
    definition = udf.__udf__
    return pool.run_batch(
        definition, "value", tuple(args),
        fallback=fallback or (lambda: definition.func(*args)),
    )


# ----------------------------------------------------------------------


class TestPoolBasics:
    def test_value_batch_runs_in_worker(self, iso):
        pool = iso.pool(pool_size=1)
        assert run_value(pool, w_inc, (41,)) == 42
        pids = pool.pids()
        assert len(pids) == 1
        assert pids[0] != os.getpid()
        assert pool.batches == 1

    def test_adapter_results_match_channel_isolation(self, iso):
        table = _table()
        sql = "SELECT w_shout(s), w_inc(x) FROM wt"
        inproc = RowStoreAdapter()
        results = []
        for adapter in (inproc, iso.adapter()):
            adapter.register_table(table)
            adapter.register_udf(w_shout)
            adapter.register_udf(w_inc)
            results.append(sorted(map(repr, adapter.execute_sql(sql).to_rows())))
        assert results[0] == results[1]

    def test_udf_exceptions_cross_the_boundary_typed(self, iso):
        pool = iso.pool(pool_size=1)
        with pytest.raises(ValueError, match="bad value 7"):
            run_value(pool, w_bad, (7,))
        # The worker survives an ordinary exception (no crash/restart).
        assert pool.crashes == 0
        assert run_value(pool, w_inc, (1,)) == 2

    def test_shutdown_kills_workers(self, iso):
        pool = iso.pool(pool_size=2)
        run_value(pool, w_inc, (0,))
        pids = pool.pids()
        assert pids
        pool.shutdown()
        _assert_no_children(iso.foreign)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_unpicklable_definition_falls_back_in_process(self, iso):
        pool = iso.pool(pool_size=1)

        local = 3

        @scalar_udf
        def closure_udf(x: int) -> int:
            return x + local

        assert run_value(pool, closure_udf, (1,)) == 4
        assert any(i.kind == "unpicklable" for i in pool.incidents)
        assert pool.pids() == []  # never needed a worker


class TestCrashContainment:
    def test_sigkill_mid_batch_retries_on_fresh_worker(self, iso):
        pool = iso.pool(pool_size=1)
        with inject(FaultInjector().worker_crash("w_inc", times=1)):
            assert run_value(pool, w_inc, (1,)) == 2
        assert pool.crashes == 1
        assert pool.restarts == 1
        kinds = [i.kind for i in pool.incidents]
        assert "crash" in kinds and "restart" in kinds

    def test_crash_error_is_typed_with_exitcode(self, iso):
        pool = iso.pool(pool_size=1, max_batch_retries=1,
                        quarantine_policy="fail")
        with inject(FaultInjector().worker_crash("w_inc", times=1)):
            with pytest.raises(BatchQuarantinedError) as info:
                run_value(pool, w_inc, (1,))
        cause = info.value.__cause__
        assert isinstance(cause, WorkerCrashError)
        assert cause.kind == "crash"
        assert cause.exitcode == -signal.SIGKILL
        assert cause.udf_name == "w_inc"

    def test_oom_rlimit_kill_is_contained(self, iso):
        pool = iso.pool(pool_size=1, memory_limit_mb=256)
        with pytest.warns(WorkerQuarantineWarning):
            # in-process fallback value (the hog only hogs in a worker)
            assert run_value(pool, w_hog, (5,)) == 5
        assert pool.crashes >= 1
        assert any(i.kind == "oom" for i in pool.incidents) or any(
            i.kind == "crash" for i in pool.incidents
        )

    def test_hang_killed_at_pool_batch_timeout(self, iso):
        pool = iso.pool(pool_size=1, batch_timeout_s=0.3)
        start = time.monotonic()
        with pytest.warns(WorkerQuarantineWarning):
            assert run_value(pool, w_stall, (4,)) == 8
        # killed at ~0.3s twice at most, then quarantine fallback
        assert time.monotonic() - start < 10.0
        assert any(i.kind == "hang" for i in pool.incidents)

    def test_crashes_charge_on_crash_hook(self, iso):
        charged = []
        pool = iso.pool(pool_size=1)
        pool.on_crash = lambda name, elapsed, **kw: charged.append(name)
        with inject(FaultInjector().worker_crash("w_inc", times=1)):
            run_value(pool, w_inc, (1,))
        assert charged == ["w_inc"]


class TestQuarantine:
    def test_poisoned_batch_degrades_by_default(self, iso):
        pool = iso.pool(pool_size=1, max_batch_retries=2)
        with pytest.warns(WorkerQuarantineWarning):
            assert run_value(pool, w_suicide, (1,)) == 2
        assert pool.crashes == 2
        assert len(pool.quarantined) == 1
        assert any(i.kind == "quarantine" for i in pool.incidents)

    def test_quarantined_fingerprint_short_circuits(self, iso):
        pool = iso.pool(pool_size=1, max_batch_retries=1)
        with pytest.warns(WorkerQuarantineWarning):
            run_value(pool, w_suicide, (1,))
        crashes = pool.crashes
        # Same batch again: straight to the fallback, no fresh crash.
        with pytest.warns(WorkerQuarantineWarning):
            assert run_value(pool, w_suicide, (1,)) == 2
        assert pool.crashes == crashes

    def test_fail_policy_raises_typed_error(self, iso):
        pool = iso.pool(pool_size=1, max_batch_retries=2,
                        quarantine_policy="fail")
        with pytest.raises(BatchQuarantinedError) as info:
            run_value(pool, w_suicide, (1,))
        assert info.value.crashes == 2
        assert info.value.udf_name == "w_suicide"

    def test_restart_budget_exhaustion_breaks_pool(self, iso):
        pool = iso.pool(pool_size=1, max_restarts=1)
        with pytest.warns(WorkerQuarantineWarning):
            assert run_value(pool, w_suicide, (1,)) == 2
        # The poisoned batch killed two workers; only one restart fit the
        # budget, so the next batch that needs a fresh worker breaks the
        # pool — and still degrades in-process instead of failing.
        assert run_value(pool, w_inc, (1,)) == 2
        assert pool.broken
        assert run_value(pool, w_inc, (2,)) == 3
        assert pool.pids() == []

    def test_restart_budget_fail_policy_raises(self, iso):
        pool = iso.pool(pool_size=1, max_restarts=0,
                        quarantine_policy="fail")
        with pytest.raises((WorkerRestartBudgetError, BatchQuarantinedError)):
            run_value(pool, w_suicide, (1,))


class TestGovernanceIntegration:
    def test_hang_surfaces_query_timeout_not_wedge(self, iso):
        adapter = iso.adapter()
        adapter.register_table(_table(4))
        adapter.register_udf(w_stall)
        context = QueryContext(timeout_s=1.0)
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            adapter.execute_sql(
                "SELECT w_stall(x) FROM wt", context=context
            )
        assert time.monotonic() - start < 10.0

    def test_cancellation_interrupts_inflight_batch(self, iso):
        adapter = iso.adapter()
        adapter.register_table(_table(4))
        adapter.register_udf(w_stall)
        context = QueryContext()
        timer = threading.Timer(0.4, context.cancel, args=("test",))
        timer.start()
        try:
            start = time.monotonic()
            with pytest.raises(QueryCancelledError):
                adapter.execute_sql(
                    "SELECT w_stall(x) FROM wt", context=context
                )
            assert time.monotonic() - start < 10.0
        finally:
            timer.cancel()

    def test_interrupted_worker_is_killed_not_orphaned(self, iso):
        # The worker wedged mid-batch when the cancel landed; the pool
        # must kill it (a stale reply would desync the next batch).
        adapter = iso.adapter()
        adapter.register_table(_table(2))
        adapter.register_udf(w_stall)
        context = QueryContext(timeout_s=0.5)
        with pytest.raises(QueryTimeoutError):
            adapter.execute_sql("SELECT w_stall(x) FROM wt", context=context)
        # Follow-up work on the same adapter still runs correctly.
        adapter.register_udf(w_inc)
        result = adapter.execute_sql("SELECT w_inc(x) FROM wt")
        assert sorted(r[0] for r in result.to_rows()) == [1, 2]

    @pytest.mark.parametrize("method", ["start", "join"])
    def test_interrupt_cannot_tear_worker_spawn_or_reap(
            self, iso, monkeypatch, method):
        # Under load the deadline passes while a worker is being forked,
        # or the watchdog refires while a hung one is being reaped.  An
        # async raise landing there orphans a child no shutdown can
        # reach, or loses its exit status so multiprocessing reports it
        # alive forever: both sections must run to completion.
        adapter = iso.adapter()
        adapter.register_table(_table(2))
        adapter.register_udf(w_stall)
        pool = adapter.workers
        real_ctx, completed = pool._mp, []

        class Lingering:
            """``pool._mp`` whose processes stay in Python bytecode —
            where an async raise can land — after ``method`` returns."""

            Pipe = real_ctx.Pipe

            @staticmethod
            def Process(**kw):
                process = real_ctx.Process(**kw)
                real = getattr(process, method)

                def linger(**kwargs):
                    result = real(**kwargs)
                    deadline = time.monotonic() + 0.6
                    while time.monotonic() < deadline:
                        time.sleep(0.001)
                    completed.append(method)
                    return result

                setattr(process, method, linger)
                return process

        monkeypatch.setattr(pool, "_mp", Lingering)
        with pytest.raises(QueryTimeoutError):
            adapter.execute_sql(
                "SELECT w_stall(x) FROM wt",
                context=QueryContext(timeout_s=0.3),
            )
        assert method in completed
        # The forked worker is on its handle; the hung one is gone.
        assert len(pool.pids()) == (1 if method == "start" else 0)


class TestSupervision:
    def test_heartbeat_detects_externally_killed_worker(self, iso):
        pool = iso.pool(
            pool_size=1, heartbeat_interval_s=0.05, heartbeat_timeout_s=0.5
        )
        run_value(pool, w_inc, (0,))
        (pid,) = pool.pids()
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool.heartbeat_failures == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.heartbeat_failures >= 1
        # The pool recovers: next batch restarts a worker.
        assert run_value(pool, w_inc, (1,)) == 2
        assert pool.pids() and pool.pids() != [pid]

    def test_heartbeat_ages_reported(self, iso):
        pool = iso.pool(pool_size=1, heartbeat_interval_s=0.05)
        run_value(pool, w_inc, (0,))
        time.sleep(0.3)
        ages = pool.heartbeat_ages()
        assert ages and all(age < 5.0 for age in ages.values())

    def test_incident_log_is_bounded(self, iso):
        pool = iso.pool(pool_size=1, max_incidents=4)
        for i in range(10):
            pool._record("crash", udf="x", detail=str(i))
        assert len(pool.incidents) == 4
        assert pool.incidents_dropped == 6
        assert [i.detail for i in pool.incidents] == ["6", "7", "8", "9"]

    def test_snapshot_shape(self, iso):
        pool = iso.pool(pool_size=2)
        run_value(pool, w_inc, (0,))
        snap = pool.snapshot()
        assert snap["batches"] == 1
        assert snap["alive"] >= 1
        assert snap["broken"] is False


class TestReportVisibility:
    def test_worker_events_surface_in_last_report(self, iso):
        adapter = iso.adapter(max_batch_retries=1)
        adapter.register_table(_table(4))
        adapter.register_udf(w_inc)
        qfusor = QFusor(adapter, QFusorConfig(enabled=False))
        with inject(FaultInjector().worker_crash("w_inc", times=1)):
            with pytest.warns(WorkerQuarantineWarning):
                qfusor.execute("SELECT w_inc(x) FROM wt")
        report = qfusor.last_report
        kinds = [e.kind for e in report.worker_events]
        assert "crash" in kinds
        assert "restart" in kinds

    def test_worker_metrics_recorded(self, iso):
        from repro import obs
        from repro.obs import METRICS

        METRICS.reset()
        obs.enable()
        try:
            pool = iso.pool(pool_size=1)
            with inject(FaultInjector().worker_crash("w_inc", times=1)):
                run_value(pool, w_inc, (1,))
            series = METRICS.snapshot()["counters"]
            for name in ("repro_worker_crashes_total",
                         "repro_worker_restarts_total",
                         "repro_worker_batches_total"):
                assert any(k.startswith(name) for k in series), name
        finally:
            obs.disable()
            METRICS.reset()


@pytest.mark.slow
# Quarantine-and-degrade firing mid-storm is the contained behaviour the
# soak is exercising; its warnings are expected.
@pytest.mark.filterwarnings("ignore::repro.resilience.workers.WorkerQuarantineWarning")
class TestCrashStormSoak:
    def test_repeated_crash_storms_stay_contained(self, iso):
        adapter = iso.adapter(max_restarts=500)
        adapter.register_table(_table(16))
        adapter.register_udf(w_shout)
        adapter.register_udf(w_inc)
        sql = "SELECT w_shout(s), w_inc(x) FROM wt"
        baseline = sorted(map(repr, adapter.execute_sql(sql).to_rows()))
        for round_no in range(20):
            injector = FaultInjector()
            injector.worker_crash("w_inc", times=2)
            injector.worker_hang("w_shout", seconds=30, times=1)
            with inject(injector):
                context = QueryContext(timeout_s=30.0,
                                       udf_batch_timeout_s=0.5)
                result = adapter.execute_sql(sql, context=context)
            assert sorted(map(repr, result.to_rows())) == baseline
        pool = adapter.workers
        assert not pool.broken
        assert pool.crashes >= 40
        # Bounded bookkeeping even after a long storm.
        assert len(pool.incidents) <= pool.max_incidents
        assert len(pool._batch_crashes) <= 1024
