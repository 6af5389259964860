"""Per-UDF circuit breakers: state machine, fail-fast, unfused bypass."""

import time

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.errors import CircuitOpenError, UdfExecutionError
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.udf import scalar_udf

from .conftest import load


@scalar_udf
def b_flaky(x: int) -> int:
    raise ValueError("flaky by design")


@scalar_udf
def b_sluggish(x: int) -> int:
    time.sleep(0.02)
    return x


class TestCircuitBreakerUnit:
    def make(self, **kw):
        defaults = dict(
            window=8, min_calls=4, failure_threshold=0.5, cooldown_s=0.1
        )
        defaults.update(kw)
        return CircuitBreaker("f", **defaults)

    def test_starts_closed_and_stays_closed_on_success(self):
        breaker = self.make()
        for _ in range(20):
            breaker.record(True, 0.001)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_no_trip_before_min_calls(self):
        breaker = self.make(min_calls=4)
        for _ in range(3):
            breaker.record(False, 0.001)
        assert breaker.state == CLOSED

    def test_trips_open_on_failure_rate(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record(False, 0.001)
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_in_s() is not None

    def test_trips_open_on_p95_latency(self):
        breaker = self.make(latency_threshold_s=0.01)
        for _ in range(8):
            breaker.record(True, 0.05, tuples=1)  # slow but successful
        assert breaker.state == OPEN

    def test_half_open_admits_single_probe_then_closes_on_success(self):
        breaker = self.make(cooldown_s=0.05)
        for _ in range(4):
            breaker.record(False, 0.001)
        assert breaker.state == OPEN
        time.sleep(0.06)
        assert breaker.allow()  # cooldown elapsed: the one probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # second caller refused during probe
        breaker.record(True, 0.001)  # probe succeeded
        assert breaker.state == CLOSED

    def test_half_open_reopens_on_probe_failure(self):
        breaker = self.make(cooldown_s=0.05)
        for _ in range(4):
            breaker.record(False, 0.001)
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record(False, 0.001)  # probe failed
        assert breaker.state == OPEN

    def test_reset_restores_closed(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record(False, 0.001)
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow()


class TestBreakerBoard:
    def test_disabled_board_records_nothing(self):
        board = BreakerBoard()
        assert not board.enabled
        board.record_failure("f", 0.001)
        assert board.refusing(["f"]) == []
        assert board.snapshot() == {}

    def test_failures_charge_fused_constituents_not_pseudo_stages(self):
        board = BreakerBoard()
        board.configure(
            enabled=True, window=8, min_calls=2, failure_threshold=0.5
        )
        board.record_failure(
            "qf_fused_1", 0.001, fused_from=("inner", "expr", "filter")
        )
        board.record_failure(
            "qf_fused_1", 0.001, fused_from=("inner", "expr", "filter")
        )
        snapshot = board.snapshot()
        assert snapshot["qf_fused_1"] == OPEN
        assert snapshot["inner"] == OPEN
        assert "expr" not in snapshot and "filter" not in snapshot

    def test_refusing_filters_to_open_names(self):
        board = BreakerBoard()
        board.configure(
            enabled=True, window=8, min_calls=2, failure_threshold=0.5
        )
        for _ in range(2):
            board.record_failure("bad", 0.001)
            board.record_success("good", 0.001)
        assert board.refusing(["bad", "good", "unseen"]) == ["bad"]


def breaker_config(adapter, latency_threshold_s=None, **overrides):
    """Switch the adapter's breakers on — thresholds belong to their
    owner, the registry's board — and return the QFusor config the
    breaker scenarios run under."""
    adapter.registry.breakers.configure(
        enabled=True,
        window=8,
        min_calls=2,
        failure_threshold=0.5,
        latency_threshold_s=latency_threshold_s,
        cooldown_s=60.0,  # stays open for the whole test
    )
    return QFusorConfig(row_error_policy="raise", deopt=False, **overrides)


class TestBreakerPolicies:
    def trip(self, qfusor, sql, times=2):
        for _ in range(times):
            with pytest.raises(UdfExecutionError):
                qfusor.execute(sql)

    def test_fail_fast_raises_circuit_open_without_running(self):
        adapter = load(MiniDbAdapter())
        adapter.register_udf(b_flaky, replace=True)
        qfusor = QFusor(adapter, breaker_config(adapter, breaker_policy="fail_fast"))
        sql = "SELECT b_flaky(a) FROM numbers"
        self.trip(qfusor, sql)
        start = time.monotonic()
        with pytest.raises(CircuitOpenError) as info:
            qfusor.execute(sql)
        assert time.monotonic() - start < 0.1  # fail fast: no execution
        assert "b_flaky" in str(info.value)
        assert info.value.retry_in_s is not None

    def test_fail_fast_leaves_unrelated_udfs_alone(self):
        adapter = load(MiniDbAdapter())
        adapter.register_udf(b_flaky, replace=True)
        qfusor = QFusor(adapter, breaker_config(adapter, breaker_policy="fail_fast"))
        self.trip(qfusor, "SELECT b_flaky(a) FROM numbers")
        table = qfusor.execute("SELECT g_inc(a) AS v FROM numbers")
        assert sorted(r[0] for r in table.to_rows()) == [1, 2, 3, 4, 5, 6]

    def test_unfused_policy_bypasses_fusion_and_succeeds(self):
        """Trip a breaker on latency, then verify the next query runs
        through the plain (unfused) path and still returns rows."""
        adapter = load(MiniDbAdapter())
        adapter.register_udf(b_sluggish, replace=True)
        qfusor = QFusor(
            adapter,
            breaker_config(
                adapter,
                breaker_policy="unfused",
                latency_threshold_s=0.001,
            ),
        )
        sql = "SELECT b_sluggish(a) AS v FROM numbers"
        for _ in range(2):  # successful but slow: trips on p95 latency
            qfusor.execute(sql)
        assert adapter.registry.breakers.state("b_sluggish") == OPEN
        table = qfusor.execute(sql)
        assert sorted(r[0] for r in table.to_rows()) == [0, 1, 2, 3, 4, 5]
        assert "b_sluggish" in qfusor.last_report.breaker_bypass

    def test_fail_fast_is_faster_than_waiting_out_a_timeout(self):
        """Acceptance: after the breaker opens, queries fail without
        waiting out the (long) query timeout."""
        adapter = load(MiniDbAdapter())
        adapter.register_udf(b_flaky, replace=True)
        qfusor = QFusor(
            adapter,
            breaker_config(
                adapter, breaker_policy="fail_fast", query_timeout_s=30.0
            ),
        )
        sql = "SELECT b_flaky(a) FROM numbers"
        self.trip(qfusor, sql)
        start = time.monotonic()
        with pytest.raises(CircuitOpenError):
            qfusor.execute(sql)
        assert time.monotonic() - start < 1.0
