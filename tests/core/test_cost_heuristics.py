"""Unit tests for the cost model (F, the F2 inequality) and heuristics."""

import math

import pytest

from repro.core.config import QFusorConfig
from repro.core.cost import INFINITE, CostModel, CostParameters
from repro.core.dfg import Operator
from repro.core.heuristics import Heuristics
from repro.udf.state import StatsStore


def op(kind="scalar_udf", name="u", rows=None):
    operator = Operator(0, kind, name, frozenset(), frozenset())
    if rows is not None:
        class _Node:
            est_rows = rows
        operator.plan_node = _Node()
    return operator


@pytest.fixture
def cost():
    return CostModel(StatsStore(), default_rows=1000.0)


class TestOperatorCost:
    def test_udf_cost_includes_wrapping(self, cost):
        scalar = op(rows=1000)
        assert cost.operator_cost(scalar) > 1000 * cost.parameters.w_in

    def test_join_is_infinite(self, cost):
        assert cost.operator_cost(op(kind="join", name="inner join")) is INFINITE

    def test_sort_is_infinite(self, cost):
        assert cost.operator_cost(op(kind="sort", name="order by")) is INFINITE

    def test_known_selectivities(self, cost):
        assert cost.selectivity_of(op(kind="scalar_udf")) == 1.0
        assert cost.selectivity_of(op(kind="aggregate_udf")) == 0.0

    def test_learned_cost_used(self):
        stats = StatsStore()
        stats.observe("slow", 100, 100, 0.1)  # 1e-3 s/tuple
        model = CostModel(stats)
        slow = op(name="slow")
        fast = op(name="never_seen")
        assert model.processing_cost_per_tuple(slow) > \
            model.processing_cost_per_tuple(fast)

    def test_cost_hint_used_before_observations(self, cost):
        from repro.udf.definition import UdfDefinition, UdfKind
        from repro.udf.signature import UdfSignature

        hinted = op(name="hinted")
        hinted.udf = UdfDefinition(
            "hinted", UdfKind.SCALAR, lambda x: x,
            UdfSignature(("x",), (), ()), cost_hint=0.5,
        )
        assert cost.processing_cost_per_tuple(hinted) == 0.5


class TestSectionCost:
    def test_fused_cheaper_than_isolated(self, cost):
        chain = [op(rows=1000), op(rows=1000)]
        fused = cost.section_cost(chain)
        isolated = sum(cost.operator_cost(o) for o in chain)
        assert fused < isolated

    def test_section_with_join_infinite(self, cost):
        chain = [op(), op(kind="join", name="inner join")]
        assert cost.section_cost(chain) is INFINITE

    def test_empty_section_infinite(self, cost):
        assert cost.section_cost([]) is INFINITE

    def test_offloaded_relop_priced_at_udf_rate(self, cost):
        # 'case' keeps selectivity 1.0, so adding it strictly adds its
        # UDF-environment per-tuple cost to the section.
        with_case = cost.section_cost([op(rows=1000), op("case", "case", 1000)])
        without = cost.section_cost([op(rows=1000)])
        assert with_case > without
        assert with_case - without == pytest.approx(
            1000 * cost.parameters.c_udf["case"]
        )

    def test_terminal_filter_reduces_wrapper_out_cost(self, cost):
        # A terminal filter lowers the fused pipeline's output
        # selectivity, shrinking the wrapper-out term (the
        # materialization saving behind Figure 6b).
        with_filter = cost.section_cost(
            [op(rows=1000), op("filter", "filter", 1000)]
        )
        with_case = cost.section_cost([op(rows=1000), op("case", "case", 1000)])
        assert with_filter < with_case


class TestF2Inequality:
    def test_offload_wins_with_many_udfs(self, cost):
        udfs = [op(rows=100000) for _ in range(3)]
        rel = op("filter", "filter", rows=100000)
        assert cost.should_offload(rel, udfs)

    def test_join_never_offloaded(self, cost):
        rel = op("join", "inner join", rows=10)
        assert not cost.should_offload(rel, [op()])

    def test_negative_loss_always_offloads(self, cost):
        # When C_ru < C_r the right side is a gain, not a loss.
        parameters = CostParameters(
            c_engine={"filter": 1e-6}, c_udf={"filter": 1e-8}
        )
        model = CostModel(StatsStore(), parameters)
        rel = op("filter", "filter", rows=10)
        assert model.should_offload(rel, [])

    def test_tiny_gain_large_loss_rejects(self):
        parameters = CostParameters(
            w_in=1e-9, w_out=1e-9,
            c_engine={"filter": 1e-9}, c_udf={"filter": 1e-3},
        )
        model = CostModel(StatsStore(), parameters)
        rel = op("filter", "filter", rows=100000)
        assert not model.should_offload(rel, [op(rows=10)])


class TestHeuristics:
    def make(self, config=None, stats=None):
        config = config or QFusorConfig()
        return Heuristics(config, CostModel(stats or StatsStore()))

    def test_rule1_always_fuse_udf_chains(self):
        assert self.make().should_fuse_udf_chain([op()])

    def test_rule1_respects_master_switch(self):
        config = QFusorConfig(fuse_udfs=False)
        assert not self.make(config).should_fuse_udf_chain([op()])

    def test_rule2_cold_filter_always_fuses(self):
        heuristics = self.make()
        for keep in (0.9, 0.5, 0.01, None):
            assert heuristics.should_fuse_filter(
                op("filter", "filter"), [op()], keep
            ) is True

    def test_rule2_uses_cost_model_with_stats(self):
        stats = StatsStore()
        stats.observe("u", 1000, 1000, 0.001)
        heuristics = self.make(stats=stats)
        known = op(name="u", rows=10000)
        assert isinstance(
            heuristics.should_fuse_filter(
                op("filter", "filter", rows=10000), [known], 0.5
            ),
            bool,
        )

    def test_rule3_groupby(self):
        assert self.make().should_fuse_groupby()
        config = QFusorConfig(offload_aggregations=False)
        assert not self.make(config).should_fuse_groupby()

    def test_rule3_blocking_aggregate_never_fused(self):
        heuristics = self.make()
        assert heuristics.should_fuse_aggregation(op("builtin_agg", "sum"))
        assert not heuristics.should_fuse_aggregation(op("builtin_agg", "median"))

    def test_rule4_distinct_threshold(self):
        heuristics = self.make()
        assert heuristics.should_fuse_distinct(0.95)
        assert not heuristics.should_fuse_distinct(0.5)

    def test_rule5_join_sort_never(self):
        heuristics = self.make()
        assert not heuristics.should_fuse_join()
        assert not heuristics.should_fuse_sort()
