"""Unit tests for the SQL-rewrite path and the configuration profiles."""

import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

from repro.columnar import ColumnarPolicy
from repro.core import QFusorConfig
from repro.engines import (
    DuckDbLikeAdapter, MiniDbAdapter, ParallelDbAdapter, RowStoreAdapter,
    TupleDbAdapter,
)
from repro.core.rewrite import rewrite_statement, rewrite_sql
from repro.resilience.workers import WorkerPool
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


#: Constructor parameters that left the mini-engine adapters.  The
#: ``worker_*`` names were spellings only the adapters had, so docs must
#: not mention them at all; the rest are still real parameters of their
#: owners (``DurabilityManager``, ``ColumnarPolicy``) and are stale only
#: inside an adapter constructor call.
REMOVED_ADAPTER_ALIASES = (
    "worker_pool_size", "worker_memory_limit_mb", "worker_max_restarts",
    "worker_max_batch_retries", "worker_quarantine_policy",
    "worker_batch_timeout_s",
)
REMOVED_ADAPTER_FORWARDERS = (
    "wal_enabled", "wal_fsync", "checkpoint_threshold",
    "checkpoint_interval_s", "morsel_size",
)
#: The hardened channel and the typed-frame transport are gone: every UDF
#: batch crosses a boundary as pickle, so docs must not name them at all.
REMOVED_BOUNDARY_NAMES = (
    "ResilientChannel", "buffer_transport", "channel_events",
    "ChannelDegradedWarning",
)
ADAPTER_FAMILY = (
    MiniDbAdapter, RowStoreAdapter, TupleDbAdapter, DuckDbLikeAdapter,
    ParallelDbAdapter,
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

    def test_adapter_constructors_only_shrink(self):
        """The ledger builds adapters by signature inspection, so a
        ``**kwargs`` sink would swallow knobs it must report dropped."""
        names = set()
        for cls in ADAPTER_FAMILY:
            params = inspect.signature(cls).parameters.values()
            assert not any(p.kind is p.VAR_KEYWORD for p in params), cls
            names.update(p.name for p in params)
            assert not hasattr(cls, "in_process"), cls
        assert len(names) <= 7
        # ``columnar`` by that name, and only where a caller varies it.
        assert [
            cls for cls in ADAPTER_FAMILY
            if "columnar" in inspect.signature(cls).parameters
        ] == [MiniDbAdapter]

    @pytest.mark.parametrize(
        "name",
        REMOVED_ADAPTER_ALIASES + REMOVED_ADAPTER_FORWARDERS
        + ("morsel_threads", "buffer_transport"),
    )
    def test_removed_adapter_parameters_are_rejected(self, name):
        for cls in ADAPTER_FAMILY:
            with pytest.raises(TypeError):
                cls(**{name: 1})

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_docs_do_not_list_removed_knobs(self, doc):
        text = (pathlib.Path(__file__).parents[2] / doc).read_text()
        for name in set(
            REMOVED_KNOBS + REMOVED_ADAPTER_ALIASES + REMOVED_BOUNDARY_NAMES
        ):
            stale = re.search(rf"\b{name}\b", text)
            assert stale is None, f"{doc} still documents {name!r}"
        for name in REMOVED_ADAPTER_FORWARDERS:
            stale = re.search(rf"\w+Adapter\([^)]*\b{name}\b", text)
            assert stale is None, f"{doc} still passes {name!r} to an adapter"


class TestBoundaryRatchet:
    """Pickle is the one encoding across a UDF boundary; the typed-frame
    transport, its switches and the hardened channel stay deleted."""

    @pytest.mark.parametrize("name", ["buffer_transport", "enabled"])
    def test_columnar_policy_rejects_removed_fields(self, name):
        assert len(dataclasses.fields(ColumnarPolicy)) == 2
        with pytest.raises(TypeError):
            ColumnarPolicy(**{name: True})
        adapter = MiniDbAdapter()
        with pytest.raises(TypeError):
            adapter.enable_columnar(**{name: True})
        assert adapter.columnar is None

    def test_worker_pool_rejects_buffer_transport(self):
        with pytest.raises(TypeError):
            WorkerPool(buffer_transport=True)
        pool = WorkerPool(pool_size=1)
        try:
            with pytest.raises(AttributeError):
                pool.configure(buffer_transport=True)
        finally:
            pool.shutdown()

    @pytest.mark.parametrize(
        "module", ["repro.resilience.channel", "repro.columnar.transport"]
    )
    def test_deleted_modules_stay_deleted(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
