"""End-to-end observability: QueryReport on the benchmark queries for
every engine adapter, governance events attaching to traces, and the
metrics the paper's evaluation questions need."""

import pytest

from repro.bench.harness import ALL_SQL, setup_adapter
from repro.core import QFusor, QFusorConfig
from repro.engines import (
    DuckDbLikeAdapter, MiniDbAdapter, ParallelDbAdapter, RowStoreAdapter,
    TupleDbAdapter,
)
from repro.obs import METRICS, QueryReport, tracer
from repro.workloads import udfbench

UDFBENCH_IDS = sorted(udfbench.QUERIES, key=lambda q: int(q[1:]))

_ADAPTERS = {
    "minidb": (MiniDbAdapter, {}),
    "tupledb": (TupleDbAdapter, {}),
    "rowstore": (RowStoreAdapter, {}),
    "duckdb": (DuckDbLikeAdapter, {}),
    "dbx": (ParallelDbAdapter, {"threads": 2}),
}


@pytest.fixture(scope="module", params=sorted(_ADAPTERS))
def engine(request):
    make, kwargs = _ADAPTERS[request.param]
    adapter = setup_adapter(make(**kwargs), "tiny")
    return request.param, adapter, QFusor(adapter, QFusorConfig(cost_based=False))


class TestQueryReportEverywhere:
    def test_every_udfbench_query_produces_a_staged_report(self, engine):
        name, _adapter, qfusor = engine
        for query_id in UDFBENCH_IDS:
            with tracer.trace_query(query_id, adapter=name) as trace:
                qfusor.execute(ALL_SQL[query_id])
            report = QueryReport.from_trace(trace)
            assert report is not None
            for stage in ("parse", "plan", "fuse", "execute"):
                assert trace.find(stage) is not None, (
                    f"{name}/{query_id}: missing {stage!r} span\n"
                    + report.render()
                )
            stages = report.stage_seconds()
            assert stages["total"] > 0
            assert stages["execute"] > 0
            # the render never crashes and mentions the query
            assert query_id in report.render()

    def test_jit_compile_span_appears_on_first_compile(self, engine):
        name, _adapter, qfusor = engine
        # A fresh spelling of a fusible chain forces a cache miss.
        sql = "SELECT extractmonth(cleandate(upper(pubdate))) FROM pubs"
        with tracer.trace_query("compile-probe") as trace:
            qfusor.execute(sql)
        if trace.find("fuse").attrs.get("fused"):
            assert trace.find("jit_compile") is not None, (
                f"{name}: fused but no jit_compile span"
            )

    def test_operator_spans_nest_under_execute(self, engine):
        name, _adapter, qfusor = engine
        with tracer.trace_query("op-probe") as trace:
            qfusor.execute(ALL_SQL["Q1"])
        execute = trace.find("execute")
        operators = [
            span for span in execute.walk() if span.category == "operator"
        ]
        assert operators, f"{name}: no operator spans under execute"


class TestMetricsEverywhere:
    def test_query_records_udf_and_operator_metrics(self, engine):
        name, _adapter, qfusor = engine
        registry_snapshot_before = METRICS.snapshot()
        with tracer.enabled_scope(tracing=False, metrics=True):
            qfusor.execute(ALL_SQL["Q1"])
        snap = METRICS.snapshot()
        udf_calls = [
            series for series in snap["counters"]
            if series.startswith("repro_udf_calls_total")
        ]
        assert udf_calls, f"{name}: no UDF call counters recorded"
        latencies = [
            series for series in snap["histograms"]
            if series.startswith("repro_udf_call_seconds")
        ]
        assert latencies, f"{name}: no UDF latency histograms recorded"
        # exposition renders without error and includes the series
        text = METRICS.render_prometheus()
        assert "repro_udf_calls_total" in text
        del registry_snapshot_before


class TestGovernanceEventsAttach:
    def test_deopt_event_attaches_to_trace(self):
        from repro.storage import Table
        from repro.testing import poison_traces
        from repro.types import SqlType
        from repro.udf import scalar_udf

        @scalar_udf
        def obs_fold(val: str) -> str:
            return val.lower()

        @scalar_udf
        def obs_mark(val: str) -> str:
            return "<" + val + ">"

        adapter = MiniDbAdapter()
        adapter.register_table(Table.from_rows(
            "t", [("id", SqlType.INT), ("v", SqlType.TEXT)],
            [(i, v) for i, v in enumerate(["Alpha", "Beta", "Gamma"])],
        ))
        adapter.register_udf(obs_fold)
        adapter.register_udf(obs_mark)
        qfusor = QFusor(adapter, QFusorConfig(cost_based=False))
        sql = "SELECT obs_mark(obs_fold(v)) AS o FROM t"
        qfusor.execute(sql)  # warm: compile + cache the fused trace
        assert qfusor.last_report.fused
        assert poison_traces(qfusor)
        with tracer.trace_query("deopt-probe") as trace:
            qfusor.execute(sql)
        events = QueryReport(trace).events()
        assert any(event["name"] == "deopt" for event in events), (
            "no deopt event on trace; events=%r" % events
        )

