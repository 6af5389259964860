"""End-to-end cache behaviour through QFusor on a live engine.

These are the regression tests the caching subsystem hangs on: correct
results on every path, snapshot-epoch invalidation on DML, definition
version invalidation on UDF re-registration, conservative ineligibility
for unannotated UDFs, and no population for degraded runs.
"""

from types import SimpleNamespace

import pytest

from repro.cache import CacheManager
from repro.core import QFusor
from repro.core.config import QFusorConfig
from repro.engines import MiniDbAdapter, RowStoreAdapter
from repro.resilience import runtime
from repro.storage.table import Table
from repro.types import SqlType
from repro.udf import scalar_udf


@scalar_udf(name="cache_double", deterministic=True)
def cache_double(x: int) -> int:
    return x * 2


@scalar_udf(name="cache_plain")
def cache_plain(x: int) -> int:
    return x * 2


def _table():
    return Table.from_dict(
        "ct", {"a": (SqlType.INT, [1, 2, 3, 4]), "b": (SqlType.INT, [10, 20, 30, 40])}
    )


def _engine(config=None, adapter_cls=MiniDbAdapter):
    adapter = adapter_cls()
    qf = QFusor(adapter, (config or QFusorConfig.cached()).ablated(cost_based=False))
    qf.register_table(_table(), replace=True)
    qf.register_udf(cache_double)
    qf.register_udf(cache_plain)
    return qf


QUERY = "SELECT a, cache_double(b) AS d FROM ct WHERE a < 4"


def _events(qf):
    return [(e.tier, e.action) for e in qf.last_report.cache_events]


class TestResultTier:
    def test_cold_then_hot(self):
        qf = _engine()
        cold = list(qf.execute(QUERY).rows())
        assert ("result", "store") in _events(qf)
        hot = list(qf.execute(QUERY).rows())
        assert hot == cold
        assert _events(qf) == [("result", "hit")]
        assert qf.last_report.cache_outcome("result") == "hit"
        # A hit never re-ran the pipeline but still reports udf-ness.
        assert qf.last_report.is_udf_query

    def test_dml_invalidates_result_not_plan(self):
        qf = _engine()
        qf.execute(QUERY)
        qf.execute("INSERT INTO ct VALUES (0, 5)")
        rows = list(qf.execute(QUERY).rows())
        events = _events(qf)
        # Plan survives data-only DML; result must re-execute and see
        # the new row.
        assert ("plan", "hit") in events
        assert ("result", "store") in events
        assert ("result", "hit") not in events
        assert (0, 10) in rows

    def test_reregistration_invalidates_cached_results(self):
        """Satellite regression: a changed UDF body bumps the definition
        version, so plan/memo/result entries for the old body are dead."""
        qf = _engine()
        first = list(qf.execute(QUERY).rows())
        assert all(d == 2 * b for (_a, d), (_a2, b) in zip(
            first, list(qf.execute("SELECT a, b FROM ct WHERE a < 4").rows())
        ))

        @scalar_udf(name="cache_double", deterministic=True)
        def changed(x: int) -> int:
            return x * 3

        qf.register_udf(changed, replace=True)
        rows = list(qf.execute(QUERY).rows())
        events = _events(qf)
        assert ("result", "hit") not in events
        assert ("plan", "hit") not in events
        base = dict(list(qf.execute("SELECT a, b FROM ct WHERE a < 4").rows()))
        assert rows == [(a, 3 * base[a]) for a, _d in rows]

    def test_identical_reregistration_keeps_cache(self):
        qf = _engine()
        qf.execute(QUERY)
        qf.register_udf(cache_double, replace=True)
        qf.execute(QUERY)
        assert _events(qf) == [("result", "hit")]

    def test_unannotated_udf_ineligible(self):
        qf = _engine()
        sql = "SELECT cache_plain(b) AS p FROM ct"
        r1 = list(qf.execute(sql).rows())
        assert not any(t == "result" for t, _a in _events(qf))
        r2 = list(qf.execute(sql).rows())
        assert r2 == r1
        assert not any(t == "result" for t, _a in _events(qf))
        # But the plan tier (which needs no determinism) still engages.
        assert qf.last_report.cache_outcome("plan") == "hit"

    def test_udfless_queries_cache_too(self):
        qf = _engine()
        sql = "SELECT a + 1 AS n FROM ct WHERE b >= 20"
        cold = list(qf.execute(sql).rows())
        assert list(qf.execute(sql).rows()) == cold
        assert _events(qf) == [("result", "hit")]
        assert not qf.last_report.is_udf_query

    def test_separate_engines_do_not_share(self):
        qf1 = _engine()
        qf2 = _engine()
        qf1.execute(QUERY)
        qf2.execute(QUERY)
        assert ("result", "store") in _events(qf2)


class TestPlanTier:
    def test_plan_only_config(self):
        qf = _engine(QFusorConfig(plan_cache=True))
        qf.execute(QUERY)
        assert _events(qf) == [("plan", "miss"), ("plan", "store")]
        qf.execute(QUERY)
        assert _events(qf) == [("plan", "hit")]
        # Correctness on the cached-plan dispatch path.
        assert list(qf.execute(QUERY).rows()) == [(1, 20), (2, 40), (3, 60)]

    def test_plan_hit_preserves_report_shape(self):
        qf = _engine(QFusorConfig(plan_cache=True))
        qf.execute(QUERY)
        fused_cold = [f.definition.name for f in qf.last_report.fused]
        qf.execute(QUERY)
        assert [f.definition.name for f in qf.last_report.fused] == fused_cold
        assert qf.last_report.is_udf_query

    def test_rowstore_path1_plan_cache(self):
        qf = _engine(QFusorConfig(plan_cache=True), adapter_cls=RowStoreAdapter)
        cold = list(qf.execute(QUERY).rows())
        qf.execute(QUERY)
        assert _events(qf) == [("plan", "hit")]
        assert list(qf.execute(QUERY).rows()) == cold


class TestGovernancePolicy:
    def test_fault_injection_blocks_population(self):
        report = SimpleNamespace(
            deopt_events=[], row_events=[], breaker_bypass=False,
            worker_events=[],
        )
        assert CacheManager.storeable(report)
        runtime.FAULTS.armed = True
        try:
            assert not CacheManager.storeable(report)
        finally:
            runtime.FAULTS.armed = False

    def test_degraded_reports_block_population(self):
        for field in ("deopt_events", "row_events", "worker_events"):
            report = SimpleNamespace(
                deopt_events=[], row_events=[], breaker_bypass=False,
                worker_events=[],
            )
            setattr(report, field, ["incident"])
            assert not CacheManager.storeable(report)
        report = SimpleNamespace(
            deopt_events=[], row_events=[], breaker_bypass=True,
            worker_events=[],
        )
        assert not CacheManager.storeable(report)

    def test_disabled_config_records_nothing(self):
        qf = _engine(QFusorConfig())
        assert not qf.caches.active
        qf.execute(QUERY)
        qf.execute(QUERY)
        assert qf.last_report.cache_events == []
        assert qf.last_report.cache_outcome("result") is None


class TestLifecycle:
    def test_throwaway_clients_leave_the_adapter_as_they_found_it(self):
        # A fresh QFusor per pass on one long-lived adapter (the ledger's
        # short_cold shape) must not pile listeners or fused UDFs onto
        # the adapter's registry.
        adapter = MiniDbAdapter()
        adapter.register_table(_table())
        adapter.register_udf(cache_double)
        registry = adapter.registry
        listeners = len(registry._version_listeners)
        names = registry.names()
        fused_query = "SELECT cache_double(cache_double(b)) AS d FROM ct"
        for _ in range(200):
            with QFusor(adapter, QFusorConfig.cached(cost_based=False)) as qf:
                rows = list(qf.execute(fused_query).rows())
                assert qf.last_report.fused
            assert rows == [(40,), (80,), (120,), (160,)]
        assert len(registry._version_listeners) == listeners
        assert registry.names() == names
        assert registry.memo is None

    def test_close_keeps_a_later_clients_memo_attached(self):
        adapter = MiniDbAdapter()
        first = QFusor(adapter, QFusorConfig.cached())
        second = QFusor(adapter, QFusorConfig.cached())
        first.close()
        assert adapter.registry.memo is second.caches.memo
        second.close()
        assert adapter.registry.memo is None

    def test_uncached_client_subscribes_nothing(self):
        adapter = MiniDbAdapter()
        listeners = len(adapter.registry._version_listeners)
        QFusor(adapter)
        assert len(adapter.registry._version_listeners) == listeners
