"""Unit tests for the plan cache and the result cache (single-flight)."""

import threading
import time

import pytest

from repro.cache import MISS, PlanCache, PlanEntry, ResultCache


class _FakeRegistry:
    def __init__(self, names=()):
        self.names = set(names)

    def lookup(self, name):
        return name if name in self.names else None


class _FakeFused:
    def __init__(self, name):
        from types import SimpleNamespace

        self.definition = SimpleNamespace(name=name)


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        reg = _FakeRegistry()
        assert cache.lookup(("k",), reg) is None
        entry = PlanEntry(kind="sql", rewritten="stmt")
        cache.store(("k",), entry)
        assert cache.lookup(("k",), reg) is entry
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_revalidated_against_registry(self):
        """De-optimization unregisters fused UDFs; a cached plan that
        dispatches one must degrade to a miss, not a broken dispatch."""
        cache = PlanCache(capacity=4)
        entry = PlanEntry(kind="plan", fused=[_FakeFused("fused_q1_0")])
        cache.store(("k",), entry)
        assert cache.lookup(("k",), _FakeRegistry({"fused_q1_0"})) is entry
        # The fused artifact disappears from the registry (deopt).
        assert cache.lookup(("k",), _FakeRegistry()) is None
        # The stale entry was dropped entirely.
        assert len(cache) == 0

    def test_capacity_bound(self):
        cache = PlanCache(capacity=2)
        reg = _FakeRegistry()
        for i in range(5):
            cache.store((i,), PlanEntry(kind="sql"))
        assert len(cache) == 2
        assert cache.lookup((0,), reg) is None
        assert cache.lookup((4,), reg) is not None


class TestResultCacheBasics:
    def test_miss_sentinel_distinguishes_none(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup(("k",)) is MISS
        cache.store(("k",), None)
        assert cache.lookup(("k",)) is None

    def test_get_or_execute_populates_then_hits(self):
        cache = ResultCache(capacity=4)
        calls = []
        result, outcome = cache.get_or_execute(
            ("k",), lambda: (calls.append(1) or "rows", True)
        )
        assert (result, outcome) == ("rows", "lead")
        result, outcome = cache.get_or_execute(("k",), lambda: ("bad", True))
        assert (result, outcome) == ("rows", "hit")
        assert calls == [1]

    def test_unstoreable_results_not_cached(self):
        cache = ResultCache(capacity=4)
        result, outcome = cache.get_or_execute(("k",), lambda: ("rows", False))
        assert (result, outcome) == ("rows", "lead")
        assert cache.lookup(("k",)) is MISS

    def test_leader_exception_propagates_and_caches_nothing(self):
        cache = ResultCache(capacity=4)

        def boom():
            raise RuntimeError("query failed")

        with pytest.raises(RuntimeError):
            cache.get_or_execute(("k",), boom)
        assert cache.lookup(("k",)) is MISS
        # The flight was released: a retry executes normally.
        result, outcome = cache.get_or_execute(("k",), lambda: ("ok", True))
        assert (result, outcome) == ("ok", "lead")


class TestSingleFlight:
    def test_concurrent_identical_queries_execute_once(self):
        cache = ResultCache(capacity=4)
        executions = []
        gate = threading.Event()

        def execute():
            executions.append(threading.get_ident())
            gate.wait(2.0)
            return "rows", True

        outcomes = []

        def run():
            result, outcome = cache.get_or_execute(("k",), execute)
            outcomes.append((result, outcome))

        threads = [threading.Thread(target=run) for _ in range(6)]
        for t in threads:
            t.start()
        # Let followers pile up on the flight, then release the leader.
        time.sleep(0.15)
        gate.set()
        for t in threads:
            t.join(5.0)
        assert len(executions) == 1
        assert sorted(o for _r, o in outcomes) == (
            ["lead"] + ["shared"] * 5
        )
        assert all(r == "rows" for r, _o in outcomes)
        assert cache.shared == 5

    def test_follower_promotes_after_leader_failure(self):
        cache = ResultCache(capacity=4)
        order = []
        gate = threading.Event()
        lock = threading.Lock()

        def execute():
            with lock:
                first = not order
                order.append("exec")
            if first:
                gate.wait(2.0)
                raise RuntimeError("leader cancelled")
            return "recovered", True

        results = []

        def run():
            try:
                results.append(cache.get_or_execute(("k",), execute))
            except RuntimeError:
                results.append(("failed", "error"))

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.15)
        gate.set()
        for t in threads:
            t.join(5.0)
        # The leader failed; exactly one follower promoted and executed;
        # everyone else shared the promoted leader's result.
        assert ("failed", "error") in results
        assert ("recovered", "lead") in results
        assert cache.promotions >= 1
        assert len(order) == 2

        assert cache.shared == 0
