"""Unit tests for the SQL-rewrite path and the configuration profiles."""

import dataclasses
import pathlib
import re

import pytest

from repro.core import QFusorConfig
from repro.core.rewrite import rewrite_statement, rewrite_sql
from repro.sql import ast, parse, to_sql
from repro.storage import Catalog, Table
from repro.types import SqlType


def upcase_fuser(expr, fields):
    """A toy fuse hook: rewrites f(g(x)) chains into FUSED(x)."""
    if (
        isinstance(expr, ast.FunctionCall)
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.FunctionCall)
    ):
        inner = expr.args[0]
        if len(inner.args) == 1 and isinstance(inner.args[0], ast.ColumnRef):
            return ast.FunctionCall("fused", inner.args)
    return ast.rewrite_children(expr, lambda e: upcase_fuser(e, fields))


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(Table.from_rows(
        "t", [("a", SqlType.INT), ("b", SqlType.TEXT)], [(1, "x")]
    ))
    return cat


class TestRewriteStatement:
    def test_select_items_rewritten(self, catalog):
        out = rewrite_sql("SELECT f(g(b)) FROM t", upcase_fuser, catalog)
        assert "fused(b)" in out

    def test_where_rewritten(self, catalog):
        out = rewrite_sql(
            "SELECT a FROM t WHERE f(g(b)) = 'x'", upcase_fuser, catalog
        )
        assert "fused(b)" in out

    def test_update_rewritten(self, catalog):
        out = rewrite_sql(
            "UPDATE t SET b = f(g(b)) WHERE f(g(b)) = 'x'",
            upcase_fuser, catalog,
        )
        assert out.count("fused(b)") == 2

    def test_delete_rewritten(self, catalog):
        out = rewrite_sql(
            "DELETE FROM t WHERE f(g(b)) = 'x'", upcase_fuser, catalog
        )
        assert "fused(b)" in out

    def test_insert_select_rewritten(self, catalog):
        out = rewrite_sql(
            "INSERT INTO t SELECT a, f(g(b)) FROM t", upcase_fuser, catalog
        )
        assert "fused(b)" in out

    def test_create_table_as_rewritten(self, catalog):
        out = rewrite_sql(
            "CREATE TABLE t2 AS SELECT f(g(b)) FROM t", upcase_fuser, catalog
        )
        assert "fused(b)" in out

    def test_unknown_table_skips_fusion(self, catalog):
        sql = "SELECT f(g(b)) FROM unknown_table"
        out = rewrite_sql(sql, upcase_fuser, catalog)
        assert "fused" not in out  # schema unknown: left untouched

    def test_derived_table_scope_skipped_but_inner_rewritten(self, catalog):
        out = rewrite_sql(
            "SELECT x FROM (SELECT f(g(b)) AS x FROM t) AS s",
            upcase_fuser, catalog,
        )
        assert "fused(b)" in out

    def test_insert_values_untouched(self, catalog):
        sql = "INSERT INTO t (a, b) VALUES (1, 'z')"
        out = rewrite_sql(sql, upcase_fuser, catalog)
        assert parse(out) == parse(sql)

    def test_group_and_order_rewritten(self, catalog):
        out = rewrite_sql(
            "SELECT f(g(b)) AS v, count(*) FROM t GROUP BY f(g(b)) "
            "ORDER BY f(g(b))",
            upcase_fuser, catalog,
        )
        assert out.count("fused(b)") == 3


class TestConfigProfiles:
    def test_defaults_enable_everything(self):
        config = QFusorConfig()
        assert config.enabled and config.jit and config.fuse_udfs
        assert config.offload_relational and config.offload_aggregations
        assert config.trace_cache

    def test_disabled_profile(self):
        config = QFusorConfig.disabled()
        assert not config.enabled and not config.jit

    def test_jit_only_profile(self):
        config = QFusorConfig.jit_only()
        assert config.jit and not config.fuse_udfs
        assert not config.offload_relational

    def test_yesql_profile(self):
        config = QFusorConfig.yesql_like()
        assert config.fuse_udfs and not config.fuse_nonscalar
        assert not config.offload_relational

    def test_ablated_copies(self):
        base = QFusorConfig()
        variant = base.ablated(inline=False)
        assert base.inline and not variant.inline
        assert variant.fuse_udfs  # everything else untouched

    def test_filter_threshold_semantics(self):
        config = QFusorConfig(filter_fusion_min_keep=0.8)
        # the heuristics test covers behaviour; here the knob must exist
        assert config.filter_fusion_min_keep == 0.8


#: Fields that left ``QFusorConfig``: 14 forwarded to objects that own
#: the setting (``adapter.channel``, the adapter's worker pool,
#: ``adapter.registry.breakers``) and 8 that nothing ever varied.
REMOVED_KNOBS = (
    "channel_timeout", "channel_retries", "channel_backoff",
    "worker_max_batch_retries", "worker_quarantine_policy",
    "worker_max_restarts", "worker_memory_limit_mb",
    "worker_batch_timeout_s",
    "breaker_enabled", "breaker_window", "breaker_min_calls",
    "breaker_failure_threshold", "breaker_latency_threshold_s",
    "breaker_cooldown_s",
    "distinct_fusion_min_drop", "trace_cache_capacity",
    "plan_cache_capacity", "udf_memo_capacity", "udf_memo_min_cost_s",
    "result_cache_capacity", "translate_self_check",
    "translate_max_inline_depth",
)


class TestKnobRatchet:
    def test_field_count_only_goes_down(self):
        assert len(dataclasses.fields(QFusorConfig)) <= 27
        assert len(set(REMOVED_KNOBS)) == 22

    @pytest.mark.parametrize("name", REMOVED_KNOBS)
    def test_removed_knobs_are_rejected(self, name):
        """No silent ``**kwargs`` sink and no deprecated alias: a removed
        knob is a TypeError, so a stale caller finds out at once."""
        with pytest.raises(TypeError):
            QFusorConfig(**{name: 1})

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_docs_do_not_list_removed_knobs(self, doc):
        text = (pathlib.Path(__file__).parents[2] / doc).read_text()
        for name in REMOVED_KNOBS:
            if name.startswith("worker_"):
                # RowStoreAdapter's own constructor kwargs keep these
                # names; only the QFusorConfig spelling is gone.
                stale = re.search(
                    rf"QFusorConfig\([^)]*\b{name}\b|config\.{name}\b", text
                )
            else:
                stale = re.search(rf"\b{name}\b", text)
            assert stale is None, f"{doc} still documents {name!r}"
