"""Unit tests for plan-level fusion transformations (transform.py):
pattern matching, fallbacks, and the generated artifacts."""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engine.plan import (
    Aggregate, Expand, Filter, FusedFilter, Project, TableFunctionScan,
    walk_plan,
)
from repro.engines import MiniDbAdapter
from repro.udf import UdfKind, scalar_udf
from tests.conftest import TEST_UDFS, make_json_table, make_people_table


def make_qfusor(config=None):
    adapter = MiniDbAdapter()
    adapter.register_table(make_people_table())
    adapter.register_table(make_json_table())
    for udf in TEST_UDFS:
        adapter.register_udf(udf)
    return QFusor(adapter, (config or QFusorConfig()).ablated(cost_based=False))


def plan_after(qfusor, sql):
    report = qfusor.analyze(sql)
    outcome = qfusor.fuser.fuse_query(qfusor.adapter.explain_plan(sql))
    return outcome


class TestScalarChainFusion:
    def test_chain_replaced_by_single_call(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor, "SELECT t_upper(t_lower(name)) AS n FROM people"
        )
        project = next(
            n for n in walk_plan(outcome.planned.root) if isinstance(n, Project)
        )
        rendered = str(project.items[0].expr)
        assert "qf_fused" in rendered
        assert "t_upper" not in rendered

    def test_partial_fusion_inside_unfusible_expr(self):
        """A chain nested under a non-fusible function still fuses the
        fusible subtree."""
        qfusor = make_qfusor()
        # median is a blocking builtin aggregate: the inner chain fuses,
        # the aggregation stays in the engine.
        outcome = plan_after(
            qfusor,
            "SELECT median(t_inc(t_double(age))) FROM people",
        )
        agg = next(
            n for n in walk_plan(outcome.planned.root) if isinstance(n, Aggregate)
        )
        assert agg.agg_calls[0].func_name == "median"
        assert any("qf_fused" in str(a) for a in agg.agg_calls[0].args)

    def test_single_udf_jit_in_full_mode(self):
        qfusor = make_qfusor()
        outcome = plan_after(qfusor, "SELECT t_lower(name) FROM people")
        assert len(outcome.fused) == 1
        assert outcome.fused[0].definition.fused_from == ("t_lower",)


class TestSiblingFusion:
    def test_independent_udfs_share_one_loop(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor,
            "SELECT t_lower(name) AS a, t_upper(name) AS b, id FROM people",
        )
        expand = next(
            (n for n in walk_plan(outcome.planned.root) if isinstance(n, Expand)),
            None,
        )
        assert expand is not None
        assert set(expand.out_names) == {"a", "b"}
        # id is a passthrough, not a pipeline output
        assert len(expand.passthrough) == 1

    def test_sibling_fusion_preserves_results(self):
        sql = (
            "SELECT t_lower(name) AS a, t_upper(city) AS b, id FROM people "
            "ORDER BY id"
        )
        native = make_qfusor(QFusorConfig.disabled()).execute(sql).to_rows()
        fused = make_qfusor().execute(sql).to_rows()
        assert fused == native

    def test_disabled_for_scalar_only_profile(self):
        qfusor = make_qfusor(QFusorConfig.yesql_like())
        outcome = plan_after(
            qfusor, "SELECT t_lower(name) AS a, t_upper(name) AS b FROM people"
        )
        assert not any(
            isinstance(n, Expand) for n in walk_plan(outcome.planned.root)
        )


class TestFilterFusion:
    def test_bare_filter_becomes_scalar_bool_udf(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor, "SELECT id FROM people WHERE t_inc(age) > 30"
        )
        fused_filter = next(
            (n for n in walk_plan(outcome.planned.root)
             if isinstance(n, FusedFilter)),
            None,
        )
        assert fused_filter is not None
        registered = qfusor.adapter.registry.get(fused_filter.udf_name)
        assert registered.kind is UdfKind.SCALAR

    def test_shared_chain_between_filter_and_projection(self):
        """The paper's udf1_res reuse: the chain in the WHERE and the
        select list compiles once (CSE) inside one Expand."""
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor,
            "SELECT t_lower(name) AS n FROM people "
            "WHERE t_lower(name) != 'x'",
        )
        expand = next(
            n for n in walk_plan(outcome.planned.root) if isinstance(n, Expand)
        )
        fused = qfusor.adapter.registry.get(expand.call.name)
        # one t_lower stage serves both the filter and the output
        assert fused.definition.fused_from.count("t_lower") == 1
        assert "filter" in fused.definition.fused_from

    def test_plain_relational_filter_not_touched(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor, "SELECT t_lower(name) FROM people WHERE age > 30"
        )
        kinds = [type(n).__name__ for n in walk_plan(outcome.planned.root)]
        assert "Filter" in kinds
        assert "FusedFilter" not in kinds


class TestTableFusion:
    def test_tf3_input_chain_folds_into_table_udf(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor,
            "SELECT token FROM t_tokens((SELECT t_lower(body) AS b "
            "FROM docs)) AS tk",
        )
        tfs = next(
            n for n in walk_plan(outcome.planned.root)
            if isinstance(n, TableFunctionScan)
        )
        fused = qfusor.adapter.registry.get(tfs.udf_name)
        # The chain may fold directly or through an intermediate fused
        # scalar (expression fusion runs on the input project first);
        # either way the terminal is t_tokens and the scalar work is in.
        chain = fused.definition.fused_from
        assert chain[-1] == "t_tokens"
        first = chain[0]
        if first != "t_lower":
            inner = qfusor.adapter.registry.get(first)
            assert inner.definition.fused_from == ("t_lower",)

    def test_tf6_aggregate_over_table(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor,
            "SELECT t_count(token) AS n FROM t_tokens((SELECT body "
            "FROM docs)) AS tk",
        )
        agg = next(
            n for n in walk_plan(outcome.planned.root) if isinstance(n, Aggregate)
        )
        fused = qfusor.adapter.registry.get(agg.agg_calls[0].func_name)
        assert fused.kind is UdfKind.AGGREGATE
        assert "t_tokens" in fused.definition.fused_from

    def test_tf6_blocked_by_group_by(self):
        """With grouping between table UDF and aggregate, TF6 must not
        apply (Table 2's restriction)."""
        qfusor = make_qfusor()
        sql = (
            "SELECT token, t_count(token) AS n FROM t_tokens((SELECT body "
            "FROM docs)) AS tk GROUP BY token"
        )
        outcome = plan_after(qfusor, sql)
        tfs_nodes = [
            n for n in walk_plan(outcome.planned.root)
            if isinstance(n, TableFunctionScan)
        ]
        assert tfs_nodes  # the table scan survives separately
        # and results stay correct
        native = make_qfusor(QFusorConfig.disabled()).execute(sql).to_rows()
        assert sorted(make_qfusor().execute(sql).to_rows()) == sorted(native)

    def test_expand_argument_chain_fused(self):
        qfusor = make_qfusor()
        outcome = plan_after(
            qfusor, "SELECT id, t_tokens(t_lower(body)) AS tok FROM docs"
        )
        expand = next(
            n for n in walk_plan(outcome.planned.root) if isinstance(n, Expand)
        )
        fused = qfusor.adapter.registry.get(expand.call.name)
        assert fused.definition.fused_from == ("t_lower", "t_tokens")


class TestFallbacks:
    def test_unknown_function_leaves_plan_intact(self):
        @scalar_udf(name="opaque_with_global")
        def opaque(x: int) -> int:
            return x + UNDEFINED_CONST  # noqa: F821 - never executed

        qfusor = make_qfusor()
        qfusor.adapter.register_udf(opaque)
        # compiles (call-by-name fallback), still correct to analyze
        report = qfusor.analyze(
            "SELECT opaque_with_global(id) FROM people"
        )
        assert report.is_udf_query

    def test_blocking_table_udf_not_fused(self):
        from repro.udf import table_udf

        @table_udf(output=("v",), types=(str,), materializes_input=True)
        def blocking_tudf(gen):
            rows = list(gen)
            for row in reversed(rows):
                yield row

        qfusor = make_qfusor()
        qfusor.adapter.register_udf(blocking_tudf)
        outcome = plan_after(
            qfusor,
            "SELECT v FROM blocking_tudf((SELECT t_lower(body) AS b "
            "FROM docs)) AS bt",
        )
        tfs = next(
            n for n in walk_plan(outcome.planned.root)
            if isinstance(n, TableFunctionScan)
        )
        assert tfs.udf_name == "blocking_tudf"  # not replaced

    def test_distinct_count_never_fused(self):
        qfusor = make_qfusor()
        sql = "SELECT count(DISTINCT t_lower(city)) AS n FROM people"
        outcome = plan_after(qfusor, sql)
        agg = next(
            n for n in walk_plan(outcome.planned.root) if isinstance(n, Aggregate)
        )
        assert agg.agg_calls[0].func_name == "count"
        assert agg.agg_calls[0].distinct


class TestGeneratedWrapperFastPaths:
    def test_fused_scalar_has_batch_wrapper(self):
        qfusor = make_qfusor()
        qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        fused = qfusor.last_report.fused[0].definition
        assert fused.scalar_batch_func is not None
        registered = qfusor.adapter.registry.get(fused.name)
        assert "batch_udf" in registered.wrapper.source

    def test_fused_table_has_expand_batch(self):
        qfusor = make_qfusor()
        qfusor.execute(
            "SELECT id, t_tokens(t_lower(body)) AS tok FROM docs"
        )
        table_fused = [
            f.definition for f in qfusor.last_report.fused
            if f.definition.kind is UdfKind.TABLE
        ]
        assert table_fused and table_fused[0].expand_batch_func is not None

    def test_user_udfs_have_no_batch_entries(self):
        from tests.conftest import t_lower, t_tokens

        assert t_lower.__udf__.scalar_batch_func is None
        assert t_tokens.__udf__.expand_batch_func is None


class TestInterleavedLayout:
    def test_pass_between_expand_outputs(self):
        """Sibling fusion with a passthrough column between the fused
        outputs exercises the non-contiguous Expand layout."""
        sql = (
            "SELECT t_lower(name) AS a, id, t_upper(city) AS b FROM people "
            "ORDER BY id"
        )
        native = make_qfusor(QFusorConfig.disabled()).execute(sql).to_rows()
        qfusor = make_qfusor()
        assert qfusor.execute(sql).to_rows() == native

    def test_interleaved_on_tuple_engine(self):
        from repro.engines import TupleDbAdapter

        sql = (
            "SELECT t_lower(name) AS a, id, t_upper(city) AS b FROM people "
            "ORDER BY id"
        )
        native = make_qfusor(QFusorConfig.disabled()).execute(sql).to_rows()
        adapter = TupleDbAdapter()
        adapter.register_table(make_people_table())
        adapter.register_table(make_json_table())
        for udf in TEST_UDFS:
            adapter.register_udf(udf)
        qfusor = QFusor(adapter)
        assert qfusor.execute(sql).to_rows() == native


class TestDeterminismGuard:
    def test_nondeterministic_udf_blocks_flattening(self):
        """A non-deterministic UDF computed in a derived table must not
        be duplicated by subquery flattening."""
        import random

        from repro.udf import scalar_udf

        @scalar_udf(name="rand_tag", deterministic=False)
        def rand_tag(x: int) -> int:
            return random.randint(0, 10**9)

        qfusor = make_qfusor()
        qfusor.adapter.register_udf(rand_tag)
        sql = (
            "SELECT r, r FROM (SELECT rand_tag(id) AS r FROM people) AS s"
        )
        result = qfusor.execute(sql)
        for left, right in result.to_rows():
            assert left == right  # one evaluation, two references
