"""QFusor pipeline integration for Froid-style UDF-to-SQL translation.

Covers the full ladder around the translator: a hit skips fusion
entirely, an unsupported UDF falls back to the fusion ladder (including
the satellite rule that AST-pure but *unannotated* UDFs never
translate), a runtime fault on the translated statement deopts — with
poison, plan invalidation, and a correct fallback answer — and the plan
cache round-trips translated entries with revalidation.  The disabled
configuration must not construct a translator at all.
"""

from __future__ import annotations

import pytest

from repro.core import QFusor
from repro.core.config import QFusorConfig
from repro.engines import MiniDbAdapter, SqliteAdapter
from repro.obs import METRICS, tracer
from repro.sql import ast_nodes as ast
from repro.storage import Column, Table
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf.decorators import scalar_udf


@scalar_udf(name="p_add", args=["int"], returns="int", deterministic=True)
def p_add(x):
    return x + 10


@scalar_udf(name="p_loop", args=["int"], returns="int", deterministic=True)
def p_loop(x):
    total = 0
    for _ in range(3):
        total = total + x
    return total


@scalar_udf(name="p_plain", args=["int"], returns="int")
def p_plain(x):
    # AST-pure and trivially translatable — but deterministic is
    # unannotated, so translation must refuse it (satellite rule).
    return x + 1


VALUES = [1, -2, None, 5, 0]


def _qfusor(config=None, *udfs, adapter_cls=MiniDbAdapter):
    adapter = adapter_cls()
    adapter.register_table(
        Table("t", [Column("v", SqlType.INT, list(VALUES))])
    )
    for udf in udfs or (p_add,):
        adapter.register_udf(udf, replace=True)
    config = config or QFusorConfig.translated()
    return QFusor(adapter, config.ablated(cost_based=False))


class TestTranslateHit:
    def test_hit_skips_fusion(self):
        qf = _qfusor()
        out = qf.execute("SELECT p_add(v) FROM t")
        report = qf.last_report
        assert report.translate_outcome() == "hit"
        assert report.translated == ["p_add"]
        assert report.fused == []
        assert "p_add" not in (report.rewritten_sql or "").lower()
        assert out.columns[0].to_list() == [11, 8, None, 15, 10]

    def test_hit_emits_span_and_metric(self):
        qf = _qfusor()
        with tracer.enabled_scope(tracing=True, metrics=True):
            before = (
                METRICS.counter("repro_translate_total", outcome="hit")
                .snapshot()
            )
            with tracer.trace_query("q") as trace:
                qf.execute("SELECT p_add(v) FROM t")
            after = (
                METRICS.counter("repro_translate_total", outcome="hit")
                .snapshot()
            )
        assert after == before + 1
        assert any(s.name == "translate" for s in trace.spans())

    def test_dml_translates_too(self):
        qf = _qfusor()
        qf.execute("INSERT INTO t SELECT p_add(v) FROM t")
        assert qf.last_report.translate_outcome() == "hit"
        result = qf.execute("SELECT v FROM t")
        assert result.columns[0].to_list() == (
            VALUES + [11, 8, None, 15, 10]
        )


class TestFallbackToFusion:
    def test_unsupported_falls_back(self):
        qf = _qfusor(None, p_loop)
        out = qf.execute("SELECT p_loop(v) FROM t")
        report = qf.last_report
        assert report.translate_outcome() == "unsupported"
        assert "loops" in report.translate_events[-1].reason
        assert report.translated == []
        assert out.columns[0].to_list() == [3, -6, None, 15, 0]

    def test_unannotated_pure_udf_falls_back(self):
        """Satellite rule: deterministic=None means no translation,
        even when the body is AST-translatable — the fusion ladder
        handles the query instead."""
        qf = _qfusor(None, p_plain)
        out = qf.execute("SELECT p_plain(v) FROM t")
        report = qf.last_report
        assert report.translate_outcome() == "unsupported"
        assert "not annotated" in report.translate_events[-1].reason
        assert out.columns[0].to_list() == [2, -1, None, 6, 1]


class TestRuntimeDeopt:
    def _arm_fault(self, qf, exc):
        original = qf.adapter.execute_sql
        state = {"fired": False}

        def faulting(arg, *a, **kw):
            if not state["fired"] and isinstance(arg, ast.Statement):
                state["fired"] = True
                raise exc
            return original(arg, *a, **kw)

        qf.adapter.execute_sql = faulting
        return state

    def test_deopt_poisons_and_falls_back(self):
        qf = _qfusor()
        state = self._arm_fault(qf, RuntimeError("engine exploded"))
        out = qf.execute("SELECT p_add(v) FROM t")
        report = qf.last_report
        assert state["fired"]
        assert out.columns[0].to_list() == [11, 8, None, 15, 10]
        assert report.translate_outcome() == "deopt"
        assert report.translated == []
        assert report.deopted
        assert any(
            "engine exploded" in e.error for e in report.deopt_events
        )
        # Poisoned: the next query skips translation outright.
        qf.execute("SELECT p_add(v) FROM t")
        report2 = qf.last_report
        assert report2.translate_outcome() == "unsupported"
        assert "engine exploded" in report2.translate_events[-1].reason

    def test_version_bump_clears_poison(self):
        qf = _qfusor()
        self._arm_fault(qf, RuntimeError("transient"))
        qf.execute("SELECT p_add(v) FROM t")
        assert qf.last_report.translate_outcome() == "deopt"

        @scalar_udf(name="p_add", args=["int"], returns="int",
                    deterministic=True)
        def p_add_v2(x):
            return x + 20

        qf.adapter.register_udf(p_add_v2, replace=True)
        out = qf.execute("SELECT p_add(v) FROM t")
        assert qf.last_report.translate_outcome() == "hit"
        assert out.columns[0].to_list() == [21, 18, None, 25, 20]


class TestPlanCacheIntegration:
    CONFIG = dict(plan_cache=True, result_cache=False, udf_memo=False)

    def test_warm_query_hits_translated_plan_entry(self):
        qf = _qfusor(QFusorConfig.translated(**self.CONFIG))
        qf.execute("SELECT p_add(v) FROM t")
        assert qf.last_report.translate_outcome() == "hit"
        out = qf.execute("SELECT p_add(v) FROM t")
        report = qf.last_report
        assert report.translated == ["p_add"]
        assert report.translate_events[-1].outcome == "hit"
        assert report.translate_events[-1].reason == "plan-cache"
        assert out.columns[0].to_list() == [11, 8, None, 15, 10]

    def test_changed_udf_body_misses_the_cached_plan(self):
        """Plan keys embed UDF versions: re-registering a different
        body must re-translate, never serve the stale rewrite."""
        qf = _qfusor(QFusorConfig.translated(**self.CONFIG))
        qf.execute("SELECT p_add(v) FROM t")

        @scalar_udf(name="p_add", args=["int"], returns="int",
                    deterministic=True)
        def p_add_v2(x):
            return x + 30

        qf.adapter.register_udf(p_add_v2, replace=True)
        out = qf.execute("SELECT p_add(v) FROM t")
        # A fresh translation, not a stale plan-cache hit.
        assert qf.last_report.translate_events[-1].reason != "plan-cache"
        assert out.columns[0].to_list() == [31, 28, None, 35, 30]

    @pytest.mark.parametrize(
        "rung", ["translated", "fused-path2", "rewritten-path1"]
    )
    def test_failed_dispatch_stores_no_plan_entry(self, rung):
        """One population rule for every entry kind: a walk that
        de-optimized stores nothing; the next clean run stores and the
        one after hits."""
        sql = "SELECT p_add(p_add(v)) FROM t"
        if rung == "translated":
            qf = _qfusor(QFusorConfig.translated(**self.CONFIG))
            TestRuntimeDeopt._arm_fault(
                TestRuntimeDeopt(), qf, RuntimeError("boom")
            )
            qf.execute(sql)
            assert qf.last_report.translate_outcome() == "deopt"
        else:
            adapter_cls = (
                MiniDbAdapter if rung == "fused-path2" else SqliteAdapter
            )
            qf = _qfusor(
                QFusorConfig(row_error_policy="raise", **self.CONFIG),
                adapter_cls=adapter_cls,
            )
            with inject(FaultInjector().udf_exception("p_add", times=1)):
                qf.execute(sql)
            assert qf.last_report.fused, "query must fuse to test deopt"
        report = qf.last_report
        assert report.deopted and report.deopt_events[-1].recovered
        assert len(qf.caches.plan) == 0
        assert report.cache_outcome("plan") != "store"
        expected = [21, 18, None, 25, 20]
        assert qf.execute(sql).columns[0].to_list() == expected
        assert not qf.last_report.deopted
        assert qf.last_report.cache_outcome("plan") == "store"
        assert len(qf.caches.plan) == 1
        assert qf.execute(sql).columns[0].to_list() == expected
        assert qf.last_report.cache_outcome("plan") == "hit"


class TestDisabledPath:
    def test_no_translator_when_disabled(self):
        qf = _qfusor(QFusorConfig())
        assert qf.translator is None
        out = qf.execute("SELECT p_add(v) FROM t")
        report = qf.last_report
        assert report.translate_events == []
        assert report.translated == []
        assert out.columns[0].to_list() == [11, 8, None, 15, 10]

    def test_disabled_path_never_constructs_translator(self, monkeypatch):
        import repro.sql.translate as translate_mod

        def forbidden(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("UdfTranslator constructed while disabled")

        monkeypatch.setattr(translate_mod, "UdfTranslator", forbidden)
        qf = _qfusor(QFusorConfig())
        qf.execute("SELECT p_add(v) FROM t")
        assert qf.last_report.translated == []
