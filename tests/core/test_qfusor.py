"""Unit tests for the QFusor client facade and plan transformation."""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.udf import UdfKind
from tests.conftest import TEST_UDFS, make_json_table, make_people_table


def make_qfusor(config=None):
    adapter = MiniDbAdapter()
    adapter.register_table(make_people_table())
    adapter.register_table(make_json_table())
    for udf in TEST_UDFS:
        adapter.register_udf(udf)
    return QFusor(adapter, (config or QFusorConfig()).ablated(cost_based=False))


def baseline():
    adapter = MiniDbAdapter()
    adapter.register_table(make_people_table())
    adapter.register_table(make_json_table())
    for udf in TEST_UDFS:
        adapter.register_udf(udf)
    return adapter


QUERIES = [
    "SELECT t_upper(t_lower(name)) AS n FROM people ORDER BY n",
    "SELECT id FROM people WHERE t_inc(age) > 30 ORDER BY id",
    "SELECT id, t_lower(name) AS n FROM people WHERE t_lower(city) = 'athens' "
    "ORDER BY id",
    "SELECT city, t_count(t_lower(name)) AS n FROM people GROUP BY city "
    "ORDER BY city",
    "SELECT city, sum(CASE WHEN t_inc(age) > 30 THEN 1 ELSE NULL END) AS n "
    "FROM people GROUP BY city ORDER BY city",
    "SELECT id, t_tokens(t_lower(body)) AS tok FROM docs ORDER BY id",
    "SELECT token FROM t_tokens((SELECT t_lower(body) AS b FROM docs)) AS tk",
    "SELECT t_count(token) AS n FROM t_tokens((SELECT body FROM docs)) AS tk",
    "SELECT DISTINCT t_lower(city) AS c FROM people ORDER BY c",
    "SELECT t_jsonlen(t_jsonsort(tags)) AS n FROM docs ORDER BY id",
]


class TestCorrectness:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_fused_equals_unfused(self, sql):
        expected = baseline().execute_sql(sql).to_rows()
        qfusor = make_qfusor()
        assert qfusor.execute(sql).to_rows() == expected

    @pytest.mark.parametrize(
        "config_name",
        ["disabled", "jit_only", "fusion_no_offload",
         "no_aggregation_offload", "yesql_like"],
    )
    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_config_is_correct(self, config_name, sql):
        config = getattr(QFusorConfig, config_name)()
        expected = baseline().execute_sql(sql).to_rows()
        qfusor = make_qfusor(config)
        assert qfusor.execute(sql).to_rows() == expected


class TestPipelineBehaviour:
    def test_non_udf_query_bypasses_pipeline(self):
        qfusor = make_qfusor()
        qfusor.execute("SELECT id FROM people WHERE age > 30")
        assert not qfusor.last_report.is_udf_query
        assert qfusor.last_report.fused == []

    def test_scalar_chain_registers_one_fused_udf(self):
        qfusor = make_qfusor()
        qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        report = qfusor.last_report
        assert len(report.fused) == 1
        fused = report.fused[0]
        assert fused.definition.kind is UdfKind.SCALAR
        assert fused.definition.fused_from == ("t_lower", "t_upper")
        assert fused.definition.name in qfusor.adapter.registry

    def test_aggregate_offload_produces_aggregate_udf(self):
        qfusor = make_qfusor()
        qfusor.execute(
            "SELECT city, sum(CASE WHEN t_inc(age) > 30 THEN 1 ELSE NULL END) "
            "FROM people GROUP BY city"
        )
        kinds = [f.definition.kind for f in qfusor.last_report.fused]
        assert UdfKind.AGGREGATE in kinds

    def test_filter_fusion_changes_plan(self):
        qfusor = make_qfusor()
        qfusor.execute("SELECT id FROM people WHERE t_inc(age) > 30")
        report = qfusor.last_report
        assert "FusedFilter" in report.plan_after or "Expand" in report.plan_after
        assert "Filter" in report.plan_before

    def test_report_overheads_measured(self):
        qfusor = make_qfusor()
        qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        report = qfusor.last_report
        assert report.fus_optim_seconds > 0
        assert report.codegen_seconds > 0
        assert report.sections

    def test_trace_cache_hits_across_queries(self):
        qfusor = make_qfusor()
        qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        qfusor.execute("SELECT t_upper(t_lower(city)) AS c FROM people")
        # same pipeline shape over a different column: cached trace
        assert qfusor.last_report.cache_hits >= 1

    def test_analyze_does_not_execute(self):
        qfusor = make_qfusor()
        report = qfusor.analyze("SELECT t_upper(t_lower(name)) FROM people")
        assert report.is_udf_query
        assert report.fused

    def test_disabled_config_passthrough(self):
        qfusor = make_qfusor(QFusorConfig.disabled())
        result = qfusor.execute("SELECT t_lower(name) FROM people WHERE id = 1")
        assert result.to_rows() == [("alice smith",)]
        assert qfusor.last_report.fused == []

    def test_jit_only_compiles_but_does_not_fuse_chains(self):
        qfusor = make_qfusor(QFusorConfig.jit_only())
        qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        for fused in qfusor.last_report.fused:
            assert len(fused.definition.fused_from) <= 1


class TestDml:
    def test_update_with_udf_chain(self):
        qfusor = make_qfusor()
        qfusor.execute(
            "UPDATE people SET name = t_upper(t_lower(name)) WHERE id = 1"
        )
        result = qfusor.adapter.execute_sql(
            "SELECT name FROM people WHERE id = 1"
        )
        assert result.to_rows() == [("ALICE SMITH",)]
        assert qfusor.last_report.rewritten_sql is not None
        assert "qf_fused" in qfusor.last_report.rewritten_sql

    def test_delete_with_udf(self):
        qfusor = make_qfusor()
        qfusor.execute("DELETE FROM people WHERE t_lower(city) = 'athens'")
        result = qfusor.adapter.execute_sql("SELECT count(*) FROM people")
        assert result.to_rows() == [(3,)]


class TestSqlRewritePath:
    def test_rewrite_sql_replaces_chain(self):
        qfusor = make_qfusor()
        rewritten = qfusor.rewrite_sql(
            "SELECT t_upper(t_lower(name)) FROM people"
        )
        assert "qf_fused" in rewritten
        assert "t_upper" not in rewritten

    def test_rewritten_sql_executes_identically(self):
        qfusor = make_qfusor()
        sql = "SELECT t_upper(t_lower(name)) AS n FROM people ORDER BY n"
        rewritten = qfusor.rewrite_sql(sql)
        expected = baseline().execute_sql(sql).to_rows()
        assert qfusor.adapter.execute_sql(rewritten).to_rows() == expected


class TestNullSemantics:
    def test_fused_case_maps_null_to_else(self):
        """A fused CASE must produce its ELSE value for NULL inputs —
        fused pipelines register non-strict so the wrapper does not
        short-circuit NULLs (regression test)."""
        sql = (
            "SELECT id, CASE WHEN t_inc(age) > 30 THEN 'old' "
            "ELSE 'young' END AS c FROM people ORDER BY id"
        )
        expected = baseline().execute_sql(sql).to_rows()
        qfusor = make_qfusor()
        got = qfusor.execute(sql).to_rows()
        assert got == expected
        # Carol (age NULL) maps to the ELSE branch, not NULL.
        assert got[2] == (3, "young")

    def test_fused_is_null_predicate(self):
        sql = (
            "SELECT id FROM people WHERE t_lower(city) IS NULL "
            "OR t_lower(city) = 'athens' ORDER BY id"
        )
        expected = baseline().execute_sql(sql).to_rows()
        qfusor = make_qfusor()
        assert qfusor.execute(sql).to_rows() == expected

    def test_user_udfs_stay_strict(self):
        from tests.conftest import t_lower

        assert t_lower.__udf__.strict
        qfusor = make_qfusor()
        qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        fused = qfusor.last_report.fused[0].definition
        assert not fused.strict


class TestProfiling:
    def test_profile_udfs_warms_cost_model(self):
        qfusor = make_qfusor()
        stats = qfusor.adapter.registry.stats
        assert not stats.known("t_lower")
        profiled = qfusor.profile_udfs("people")
        assert "t_lower" in profiled
        assert stats.known("t_lower")
        assert profiled["t_lower"] > 0

    def test_profiling_skips_table_and_aggregate_udfs(self):
        qfusor = make_qfusor()
        profiled = qfusor.profile_udfs("docs")
        assert "t_tokens" not in profiled
        assert "t_count" not in profiled

    def test_profiling_is_safe_on_failing_udfs(self):
        from repro.udf import scalar_udf

        @scalar_udf(name="always_fails")
        def always_fails(x: str) -> str:
            raise RuntimeError("no")

        qfusor = make_qfusor()
        qfusor.adapter.register_udf(always_fails)
        profiled = qfusor.profile_udfs("people")  # must not raise
        assert "always_fails" not in profiled

    def test_profiled_stats_inform_cost_model(self):
        qfusor = make_qfusor()
        qfusor.profile_udfs("people", rounds=5)
        cost = qfusor.cost_model.stats.expected_cost("t_lower")
        from repro.udf.state import COST_BUCKETS
        assert cost in COST_BUCKETS
