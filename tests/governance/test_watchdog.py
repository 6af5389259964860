"""Runaway-UDF termination on every adapter.

Acceptance criterion from the governance issue: a deliberately
infinite/slow UDF under *any* adapter terminates within
``query_timeout_s`` plus one batch cap, raising a
:class:`~repro.errors.QueryTimeoutError` that identifies the adapter,
the query, and the offending UDF.
"""

import threading
import time

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import (
    MiniDbAdapter,
    ParallelDbAdapter,
    RowStoreAdapter,
    SqliteAdapter,
    TupleDbAdapter,
)
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.resilience import governor

from .conftest import load

ADAPTER_FACTORIES = {
    "minidb": MiniDbAdapter,
    "minidb_row": RowStoreAdapter,
    "tupledb": TupleDbAdapter,
    "sqlite": SqliteAdapter,
    "dbx": ParallelDbAdapter,
}

SPIN_SQL = "SELECT g_spin(a) FROM numbers"

#: Generous ceiling: query_timeout_s (1.0) + one batch cap (0.5) + the
#: watchdog refire/propagation slack.  Far below the UDF's 5s escape.
HARD_CEILING_S = 3.0


def governed_config(**overrides):
    base = dict(query_timeout_s=1.0, udf_batch_timeout_s=0.5)
    base.update(overrides)
    return QFusorConfig(**base)


class TestRunawayUdfTermination:
    @pytest.mark.parametrize("name", sorted(ADAPTER_FACTORIES))
    def test_infinite_udf_times_out_on_every_adapter(self, name):
        adapter = load(ADAPTER_FACTORIES[name]())
        qfusor = QFusor(adapter, governed_config())
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError) as info:
            qfusor.execute(SPIN_SQL)
        elapsed = time.monotonic() - start
        exc = info.value
        assert elapsed < HARD_CEILING_S, (
            f"{name}: took {elapsed:.2f}s to interrupt the runaway UDF"
        )
        assert exc.adapter == adapter.name
        assert exc.query is not None and "g_spin" in exc.query
        named = [exc.udf_name or ""] + list(exc.udf_chain)
        assert any("g_spin" in n for n in named), (
            f"timeout did not identify the offending UDF: {exc}"
        )
        assert exc.kind in ("query", "udf_batch")

    @pytest.mark.parametrize("name", sorted(ADAPTER_FACTORIES))
    def test_adapter_survives_a_timeout(self, name):
        """A timed-out query must not corrupt adapter state: the next
        (well-behaved) query on the same adapter succeeds."""
        adapter = load(ADAPTER_FACTORIES[name]())
        qfusor = QFusor(adapter, governed_config())
        with pytest.raises(QueryTimeoutError):
            qfusor.execute(SPIN_SQL)
        table = qfusor.execute("SELECT g_inc(a) AS v FROM numbers")
        assert sorted(r[0] for r in table.to_rows()) == [1, 2, 3, 4, 5, 6]

    def test_batch_cap_fires_before_query_deadline(self):
        """With a long query deadline but a short per-batch cap, the
        watchdog interrupts at the batch cap."""
        adapter = load(MiniDbAdapter())
        qfusor = QFusor(
            adapter,
            governed_config(query_timeout_s=30.0, udf_batch_timeout_s=0.3),
        )
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError) as info:
            qfusor.execute(SPIN_SQL)
        assert time.monotonic() - start < HARD_CEILING_S
        assert info.value.kind == "udf_batch"

    def test_timeout_without_batch_cap_still_fires(self):
        adapter = load(MiniDbAdapter())
        qfusor = QFusor(adapter, QFusorConfig(query_timeout_s=0.5))
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            qfusor.execute(SPIN_SQL)
        assert time.monotonic() - start < HARD_CEILING_S

    def test_explicit_timeout_s_argument_overrides(self):
        adapter = load(MiniDbAdapter())
        qfusor = QFusor(adapter)  # no governance configured
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            qfusor.execute(SPIN_SQL, timeout_s=0.5)
        assert time.monotonic() - start < HARD_CEILING_S

    def test_ungoverned_legacy_path_unchanged(self):
        """Without any governance knobs the pipeline never builds a
        context: fast queries run exactly as before."""
        adapter = load(MiniDbAdapter())
        qfusor = QFusor(adapter)
        table = qfusor.execute("SELECT g_double(a) AS v FROM numbers")
        assert sorted(r[0] for r in table.to_rows()) == [0, 2, 4, 6, 8, 10]
        assert qfusor._last_context is None


class TestCooperativeCancellation:
    @pytest.mark.parametrize("name", ["minidb", "tupledb", "sqlite"])
    def test_cancel_interrupts_running_query(self, name):
        adapter = load(ADAPTER_FACTORIES[name]())
        ctx = governor.QueryContext()
        failure = []

        def cancel_soon():
            time.sleep(0.2)
            ctx.cancel("test asked")

        killer = threading.Thread(target=cancel_soon)
        killer.start()
        start = time.monotonic()
        try:
            with pytest.raises(QueryCancelledError) as info:
                adapter.execute_sql(SPIN_SQL, context=ctx)
        finally:
            killer.join()
        assert time.monotonic() - start < HARD_CEILING_S
        assert info.value.reason == "test asked"
        assert not failure

    def test_qfusor_cancel_handle(self):
        adapter = load(MiniDbAdapter())
        qfusor = QFusor(adapter, governed_config(query_timeout_s=10.0))
        outcome = {}

        def run():
            try:
                qfusor.execute(SPIN_SQL)
            except BaseException as exc:  # noqa: BLE001 - recording
                outcome["exc"] = exc

        worker = threading.Thread(target=run)
        worker.start()
        time.sleep(0.3)  # let the query start and enter the UDF
        assert qfusor.cancel("operator console")
        worker.join(timeout=HARD_CEILING_S)
        assert not worker.is_alive()
        assert isinstance(outcome.get("exc"), QueryCancelledError)

    def test_pre_cancelled_context_never_starts(self):
        adapter = load(MiniDbAdapter())
        ctx = governor.QueryContext()
        ctx.cancel("before submit")
        with pytest.raises(QueryCancelledError):
            adapter.execute_sql("SELECT g_inc(a) FROM numbers", context=ctx)


class TestRegistrationIsInterruptSafe:
    def test_watchdog_is_woken_before_it_can_fire_into_the_registrant(
        self, monkeypatch
    ):
        # Event.set takes the event's lock in a pure-Python __enter__;
        # an async raise landing there leaks the lock and wedges every
        # later registration.  The watchdog fires only under its own
        # lock, so the wake must happen while the registrant holds it.
        watchdog = governor.Watchdog()
        held = []
        wake = watchdog._wake.set
        monkeypatch.setattr(
            watchdog._wake, "set",
            lambda: (held.append(watchdog._lock.locked()), wake()),
        )
        context = governor.QueryContext()
        entry = watchdog.register(threading.get_ident(), context)
        watchdog.unregister(entry)
        assert held == [True]


#: Fires a timeout into a busy loop, lets ``activate`` clear what the
#: watchdog left pending, then times one call under a profile hook.
_PROFILED_AFTER_TIMEOUT = """
import sys, time
from repro.errors import QueryTimeoutError
from repro.resilience import governor

try:
    with governor.activate(governor.QueryContext(timeout_s=0.02)):
        while True:
            pass
except QueryTimeoutError:
    pass

def probe():
    return 1

sys.setprofile(lambda *args: None)
start = time.perf_counter()
probe()
sys.setprofile(None)
print(time.perf_counter() - start)
"""


class TestClearedInterruptLeavesNoTrace:
    def test_profiled_call_after_a_fired_timeout_returns(self):
        # Clearing the pending slot with NULL left CPython 3.11's
        # eval-breaker flag raised for the life of the process, and any
        # frame entered under sys.setprofile then spun forever.  In a
        # subprocess, so a regression hangs only the child.
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        try:
            done = subprocess.run(
                [sys.executable, "-c", _PROFILED_AFTER_TIMEOUT],
                env=env, capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("a profiled call hung after a cleared timeout")
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.split()[-1]) < 1.0
