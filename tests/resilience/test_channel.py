"""Process-boundary hardening for the minidb_row pickle channel."""

import threading
import time
import warnings

import pytest

from repro.core import QFusor
from repro.engines import RowStoreAdapter
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.resilience import QueryContext, govern
from repro.resilience.channel import ChannelDegradedWarning, ResilientChannel
from repro.storage import Column, Table
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf import scalar_udf


@scalar_udf
def c_fold(val: str) -> str:
    return val.lower()


@scalar_udf
def c_mark(val: str) -> str:
    return "<" + val + ">"


class TestTransferRetries:
    def test_transient_corruption_is_retried(self):
        channel = ResilientChannel(retries=3, backoff=0.0)
        with inject(FaultInjector().channel("corrupt", times=2)):
            out = channel.transfer({"a": [1, 2]})
        assert out == {"a": [1, 2]}
        assert channel.retried == 2
        assert [i.kind for i in channel.incidents] == [
            "corruption", "corruption",
        ]
        assert channel.degraded == 0

    def test_transient_timeout_is_retried(self):
        channel = ResilientChannel(retries=2, backoff=0.0)
        with inject(FaultInjector().channel("timeout", times=1)):
            out = channel.transfer([1, 2, 3])
        assert out == [1, 2, 3]
        assert channel.incidents[0].kind == "timeout"

    def test_dropped_payload_is_retried(self):
        channel = ResilientChannel(retries=1, backoff=0.0)
        with inject(FaultInjector().channel("drop", times=1)):
            assert channel.transfer("x") == "x"
        assert channel.incidents[0].kind == "drop"

    def test_crossings_counted_once_per_transfer(self):
        channel = ResilientChannel(retries=3, backoff=0.0)
        with inject(FaultInjector().channel("corrupt", times=2)):
            channel.transfer("payload")
        assert channel.crossings == 1


class TestDegradation:
    def test_exhausted_retries_degrade_with_warning(self):
        channel = ResilientChannel(retries=2, backoff=0.0)
        payload = {"rows": [1, 2]}
        with inject(FaultInjector().channel("drop", times=10)):
            with pytest.warns(ChannelDegradedWarning):
                out = channel.transfer(payload)
        # Degraded transfer hands the payload over in-process, unchanged.
        assert out is payload
        assert channel.degraded == 1
        assert channel.incidents[-1].kind == "degraded"

    def test_unpicklable_payload_degrades_instead_of_crashing(self):
        channel = ResilientChannel(retries=1, backoff=0.0)
        payload = {"gen": (x for x in range(3))}  # generators don't pickle
        with pytest.warns(ChannelDegradedWarning):
            out = channel.transfer(payload)
        assert out is payload
        assert all(i.kind in ("corruption", "degraded")
                   for i in channel.incidents)


class TestRowStoreIntegration:
    def make_adapter(self):
        adapter = RowStoreAdapter()
        adapter.register_table(Table.from_rows(
            "t", [("id", SqlType.INT), ("v", SqlType.TEXT)],
            [(0, "Aa"), (1, "Bb"), (2, "Cc")],
        ))
        adapter.register_udf(c_fold)
        adapter.register_udf(c_mark)
        return adapter

    def test_adapter_uses_resilient_channel(self):
        adapter = self.make_adapter()
        assert isinstance(adapter.channel, ResilientChannel)

    def test_default_clients_leave_adapter_settings_alone(self):
        """The channel, the worker pool and the breaker board are
        configured on their owner; attaching default clients (a second
        one included — the board is shared by every client of the
        adapter) must write to none of them."""
        adapter = RowStoreAdapter(isolation="process")
        try:
            adapter.workers.configure(
                max_batch_retries=1, batch_timeout_s=2.5
            )
            adapter.channel.configure(retries=1, backoff=0.0, timeout=9.0)
            adapter.registry.breakers.configure(
                enabled=True, window=8, min_calls=2, cooldown_s=60.0
            )
            QFusor(adapter)
            QFusor(adapter)
            channel = adapter.channel
            assert (channel.retries, channel.backoff, channel.timeout) == (
                1, 0.0, 9.0
            )
            pool = adapter.workers
            assert pool.max_batch_retries == 1
            assert pool.batch_timeout_s == 2.5
            board = adapter.registry.breakers
            assert board.enabled
            assert (board.window, board.min_calls, board.cooldown_s) == (
                8, 2, 60.0
            )
        finally:
            adapter.close()

    def test_batch_invocation_correct_under_channel_faults(self):
        adapter = self.make_adapter()
        adapter.channel.configure(retries=3, backoff=0.0)
        col = Column("v", SqlType.TEXT, ["AB", "CD"])
        with inject(FaultInjector().channel("corrupt", times=2)):
            out = adapter.registry.get("c_fold").call_scalar([col], 2)
        assert out.to_list() == ["ab", "cd"]
        # One crossing in, one crossing out — retries don't inflate it.
        assert adapter.channel.crossings == 2
        assert len(adapter.channel.incidents) == 2

    def test_profiling_crosses_channel_and_degrades_gracefully(self):
        """profile_udfs drives the batch invocation path, which really
        crosses the channel — faults degrade it without aborting."""
        adapter = self.make_adapter()
        adapter.channel.configure(retries=1, backoff=0.0)
        qfusor = QFusor(adapter)
        with inject(FaultInjector().channel("drop", times=50)) as inj:
            with pytest.warns(ChannelDegradedWarning):
                profiled = qfusor.profile_udfs("t")
        assert inj.fired > 0
        assert adapter.channel.degraded > 0
        assert "c_fold" in profiled

    def test_tuple_query_path_does_not_cross_channel(self):
        """The tuple execution model invokes UDFs per-value in process
        (the seed's crossings==0 behaviour), so armed channel faults
        cannot perturb query results on this path."""
        adapter = self.make_adapter()
        qfusor = QFusor(adapter)
        reference = sorted(
            adapter.execute_sql("SELECT c_mark(c_fold(v)) AS o FROM t")
            .to_rows()
        )
        with inject(FaultInjector().channel("drop", times=50)) as inj:
            result = qfusor.execute("SELECT c_mark(c_fold(v)) AS o FROM t")
        assert sorted(result.to_rows()) == reference
        assert inj.fired == 0


class TestBoundedIncidents:
    def test_incident_log_is_bounded_with_drop_counter(self):
        channel = ResilientChannel(retries=0, backoff=0.0, max_incidents=4)
        with inject(FaultInjector().channel("drop", times=100)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ChannelDegradedWarning)
                for _ in range(10):
                    channel.transfer("x")
        # 10 transfers x (1 drop + 1 degraded) = 20 incidents total.
        assert len(channel.incidents) == 4
        assert channel.incidents_dropped == 16
        assert channel.degraded == 10

    def test_drain_incidents_clears_log(self):
        channel = ResilientChannel(retries=1, backoff=0.0)
        with inject(FaultInjector().channel("corrupt", times=1)):
            channel.transfer("x")
        drained = channel.drain_incidents()
        assert [i.kind for i in drained] == ["corruption"]
        assert len(channel.incidents) == 0
        assert channel.drain_incidents() == []


class TestCooperativeBackoff:
    def test_deadline_interrupts_backoff_schedule(self):
        # 60 capped 0.1s backoff sleeps = ~6s of retry schedule; a 0.3s
        # query deadline must cut through it instead of riding it out.
        channel = ResilientChannel(retries=60, backoff=10.0)
        context = QueryContext(timeout_s=0.3)
        start = time.monotonic()
        with inject(FaultInjector().channel("drop", times=1000)):
            with govern("test", context):
                with pytest.raises(QueryTimeoutError):
                    channel.transfer("payload")
        assert time.monotonic() - start < 3.0
        assert channel.degraded == 0  # interrupted, not degraded

    def test_cancellation_interrupts_backoff(self):
        channel = ResilientChannel(retries=60, backoff=10.0)
        context = QueryContext()
        timer = threading.Timer(0.2, context.cancel, args=("test",))
        timer.start()
        try:
            start = time.monotonic()
            with inject(FaultInjector().channel("drop", times=1000)):
                with govern("test", context):
                    with pytest.raises(QueryCancelledError):
                        channel.transfer("payload")
            assert time.monotonic() - start < 3.0
        finally:
            timer.cancel()

    def test_ungoverned_backoff_still_sleeps(self):
        channel = ResilientChannel(retries=2, backoff=0.01)
        with inject(FaultInjector().channel("drop", times=2)):
            assert channel.transfer("x") == "x"
        assert channel.retried == 2


class TestConcurrentDegradation:
    def test_degradation_accounting_is_exact_across_threads(self):
        """Satellite regression: two queries degrading the same channel
        concurrently must not lose incidents or warning counts."""
        n_threads, per_thread = 4, 5
        channel = ResilientChannel(retries=1, backoff=0.0,
                                   max_incidents=10_000)
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10)
                for _ in range(per_thread):
                    channel.transfer("payload")
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        with inject(FaultInjector().channel("drop", times=10_000)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                threads = [threading.Thread(target=worker)
                           for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        assert not errors
        total = n_threads * per_thread
        assert channel.degraded == total
        assert channel.retried == total  # retries=1, every attempt fails
        # Each transfer: 2 failure incidents + 1 degraded incident.
        assert len(channel.incidents) == total * 3
        kinds = [i.kind for i in channel.incidents]
        assert kinds.count("degraded") == total
        degraded_warnings = [w for w in caught
                             if issubclass(w.category,
                                           ChannelDegradedWarning)]
        assert len(degraded_warnings) == total
