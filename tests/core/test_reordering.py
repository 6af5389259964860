"""Unit tests for F3 operator reordering (OptimPermutation and the
conservative disjoint-fields condition of section 5.1.1)."""

import pytest

from repro.core.config import QFusorConfig
from repro.core.cost import CostModel
from repro.core.dfg import DataFlowGraph, Operator
from repro.core.sections import (
    _optim_permutation, _permutation_legal, discover_sections,
    fusible_or_reorderable,
)
from repro.udf.state import StatsStore


def op(op_id, kind, name, inputs, outputs):
    return Operator(op_id, kind, name, frozenset(inputs), frozenset(outputs))


def chain_graph(*operators):
    graph = DataFlowGraph(list(operators))
    for producer in operators:
        for consumer in operators:
            if producer.op_id != consumer.op_id and (
                producer.outputs & consumer.inputs
            ):
                graph.add_edge(producer.op_id, consumer.op_id)
    return graph


class TestPermutationLegality:
    def test_disjoint_fields_may_swap(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        flt = op(1, "filter", "filter", {"col:t.c"}, {"%2"})
        assert _permutation_legal([flt, u1], [u1, flt])

    def test_overlapping_fields_may_not_swap(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        flt = op(1, "filter", "filter", {"%1"}, {"%2"})
        assert not _permutation_legal([flt, u1], [u1, flt])

    def test_identity_always_legal(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        u2 = op(1, "scalar_udf", "u2", {"%1"}, {"%2"})
        assert _permutation_legal([u1, u2], [u1, u2])


class TestOptimPermutation:
    def test_respects_reorder_switch(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        flt = op(1, "filter", "filter", {"col:t.c"}, {"%2"})
        graph = chain_graph(u1, flt)
        cost = CostModel(StatsStore())
        config = QFusorConfig(reorder=False)
        assert _optim_permutation([u1, flt], graph, cost, config) == [u1, flt]

    def test_large_sections_skip_search(self):
        operators = [
            op(i, "scalar_udf", f"u{i}", {f"col:t.c{i}"}, {f"%{i}"})
            for i in range(8)
        ]
        graph = DataFlowGraph(operators)
        cost = CostModel(StatsStore())
        result = _optim_permutation(
            list(operators), graph, cost, QFusorConfig()
        )
        assert result == list(operators)  # beyond the permutation cap


class TestFusibleOrReorderable:
    def make_config(self, reorder=True):
        return QFusorConfig(reorder=reorder)

    def test_two_fusible_ops(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        u2 = op(1, "scalar_udf", "u2", {"%1"}, {"%2"})
        graph = chain_graph(u1, u2)
        assert fusible_or_reorderable(graph, u1, u2, self.make_config())

    def test_join_blocks_even_with_reorder(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        join = op(1, "join", "inner join", {"%1"}, {"%2"})
        graph = chain_graph(u1, join)
        assert not fusible_or_reorderable(graph, u1, join, self.make_config())

    def test_disjoint_pair_reorderable_when_one_side_fusible(self):
        u1 = op(0, "scalar_udf", "u1", {"col:t.a"}, {"%1"})
        sort = op(1, "sort", "order by", {"col:t.z"}, {"%2"})
        graph = DataFlowGraph([u1, sort])
        config = self.make_config()
        assert fusible_or_reorderable(graph, u1, sort, config)
        assert not fusible_or_reorderable(
            graph, u1, sort, self.make_config(reorder=False)
        )


class TestF3EndToEnd:
    def test_udf_rel_udf_reordering_unblocks_fusion(self, db):
        """u1(a) -> filter(c) -> u2(a): the filter touches a different
        field, so reordering (F3) lets the whole run fuse — and the
        result is unchanged."""
        sql = (
            "SELECT t_upper(t_lower(name)) AS n FROM "
            "(SELECT name, age FROM people) AS s WHERE age > 25 "
            "ORDER BY n"
        )
        from repro.core import QFusor
        from repro.engines import MiniDbAdapter
        from tests.conftest import TEST_UDFS, make_people_table

        native = db.execute(sql).to_rows()
        adapter = MiniDbAdapter()
        adapter.register_table(make_people_table())
        for udf in TEST_UDFS:
            adapter.register_udf(udf)
        qfusor = QFusor(adapter, QFusorConfig(cost_based=False))
        assert qfusor.execute(sql).to_rows() == native
        report = qfusor.last_report
        # the scalar chain fused despite the interleaved filter
        assert any(
            f.definition.fused_from == ("t_lower", "t_upper")
            for f in report.fused
        )
