"""Unit tests for fused-UDF code generation — the Table 2 templates.

Each TestTF* class checks one loop-fusion template: the fused UDF's
resulting type (Table 2's "result" row) and its behaviour, including
NULL semantics matching the unfused wrappers.
"""

import pytest

from repro.errors import JitError
from repro.jit import (
    AggregateStage, DistinctStage, ExprStage, FilterStage, PipelineSpec,
    ScalarUdfStage, TableUdfStage, generate_fused_udf,
)
from repro.types import SqlType
from repro.udf import UdfKind
from tests.conftest import (
    t_count, t_inc, t_lower, t_pairs, t_tokens, t_upper,
)

LOWER = t_lower.__udf__
UPPER = t_upper.__udf__
INC = t_inc.__udf__
COUNT = t_count.__udf__
TOKENS = t_tokens.__udf__
PAIRS = t_pairs.__udf__


def spec(name, inputs, stages, outputs, output_types, **kw):
    return PipelineSpec(
        name=name, inputs=tuple(inputs), stages=tuple(stages),
        outputs=tuple(outputs), output_types=tuple(output_types), **kw
    )


class TestTF1ScalarScalar:
    def make(self):
        return generate_fused_udf(spec(
            "tf1", [("x", SqlType.TEXT)],
            [
                ScalarUdfStage(LOWER, ("x",), "v1"),
                ScalarUdfStage(UPPER, ("v1",), "v2"),
            ],
            ["v2"], [SqlType.TEXT],
        ))

    def test_result_kind_scalar(self):
        assert self.make().definition.kind is UdfKind.SCALAR

    def test_behaviour(self):
        assert self.make().definition.func("MiXeD") == "MIXED"

    def test_null_strictness_per_stage(self):
        assert self.make().definition.func(None) is None

    def test_bodies_inlined(self):
        fused = self.make()
        assert fused.inlined_stages == 2
        assert fused.called_stages == 0
        assert "lower()" in fused.source and "upper()" in fused.source

    def test_trace_length(self):
        assert self.make().trace_length == 2


class TestTF2ScalarAggregate:
    def make(self, builtin=None):
        stages = [ScalarUdfStage(LOWER, ("x",), "v1")]
        if builtin:
            stages.append(AggregateStage(("v1",), "out", builtin=builtin))
        else:
            stages.append(AggregateStage(("v1",), "out", udf=COUNT))
        return generate_fused_udf(spec(
            "tf2", [("x", SqlType.TEXT)], stages, ["out"], [SqlType.INT],
        ))

    def test_result_kind_aggregate(self):
        assert self.make().definition.kind is UdfKind.AGGREGATE

    def test_init_step_final(self):
        state = self.make().definition.func()
        state.step("A")
        state.step("B")
        assert state.final() == 2

    def test_nulls_skipped(self):
        state = self.make().definition.func()
        state.step(None)
        state.step("x")
        assert state.final() == 1

    def test_builtin_aggregate_offload(self):
        fused = generate_fused_udf(spec(
            "tf2b", [("x", SqlType.INT)],
            [
                ScalarUdfStage(INC, ("x",), "v1"),
                AggregateStage(("v1",), "out", builtin="sum"),
            ],
            ["out"], [SqlType.INT],
        ))
        state = fused.definition.func()
        state.step(1)
        state.step(2)
        assert state.final() == 5  # (1+1) + (2+1)


class TestTF3ScalarTable:
    def make(self):
        return generate_fused_udf(spec(
            "tf3", [("x", SqlType.TEXT)],
            [
                ScalarUdfStage(LOWER, ("x",), "v1"),
                TableUdfStage(TOKENS, ("v1",), (), ("t0",)),
            ],
            ["t0"], [SqlType.TEXT],
        ))

    def test_result_kind_table(self):
        assert self.make().definition.kind is UdfKind.TABLE

    def test_scalar_runs_inside_generator(self):
        out = list(self.make().definition.func(iter([("A B",), ("C",)])))
        assert out == [("a",), ("b",), ("c",)]

    def test_trace_length_counts_each_stage_once(self):
        # The table body and its __expand_batch wrapper are one trace.
        fused = self.make()
        assert (fused.inlined_stages, fused.called_stages) == (1, 1)
        assert fused.trace_length == 2


class TestTF4TableTable:
    def test_composition(self):
        fused = generate_fused_udf(spec(
            "tf4", [("x", SqlType.TEXT)],
            [
                TableUdfStage(TOKENS, ("x",), (), ("m0",)),
                TableUdfStage(TOKENS, ("m0",), (), ("t0",)),
            ],
            ["t0"], [SqlType.TEXT],
        ))
        assert fused.definition.kind is UdfKind.TABLE
        out = list(fused.definition.func(iter([("a b",)])))
        assert out == [("a",), ("b",)]


class TestTF5TableScalar:
    def test_scalar_over_table_output(self):
        fused = generate_fused_udf(spec(
            "tf5", [("x", SqlType.TEXT)],
            [
                TableUdfStage(TOKENS, ("x",), (), ("t0",)),
                ScalarUdfStage(UPPER, ("t0",), "v1"),
            ],
            ["v1"], [SqlType.TEXT],
        ))
        out = list(fused.definition.func(iter([("a b",)])))
        assert out == [("A",), ("B",)]


class TestTF6TableAggregate:
    def test_aggregate_over_table(self):
        fused = generate_fused_udf(spec(
            "tf6", [("x", SqlType.TEXT)],
            [
                TableUdfStage(TOKENS, ("x",), (), ("t0",)),
                AggregateStage(("t0",), "out", builtin="count"),
            ],
            ["out"], [SqlType.INT],
        ))
        assert fused.definition.kind is UdfKind.AGGREGATE
        state = fused.definition.func()
        state.step("a b c")
        state.step("d")
        assert state.final() == 4


class TestTF7AggregateScalar:
    def test_scalar_on_final(self):
        fused = generate_fused_udf(spec(
            "tf7", [("x", SqlType.INT)],
            [
                AggregateStage(("x",), "v1", builtin="sum"),
                ScalarUdfStage(INC, ("v1",), "v2"),
            ],
            ["v2"], [SqlType.INT],
        ))
        assert fused.definition.kind is UdfKind.AGGREGATE
        state = fused.definition.func()
        state.step(10)
        state.step(20)
        assert state.final() == 31


class TestTF8AggregateTable:
    def test_table_over_final(self):
        fused = generate_fused_udf(spec(
            "tf8", [("x", SqlType.TEXT)],
            [
                AggregateStage(("x",), "v1", builtin="count"),
                ExprStage("'n ' * v1", ("v1",), "v2"),
                TableUdfStage(TOKENS, ("v2",), (), ("t0",)),
            ],
            ["t0"], [SqlType.TEXT],
        ))
        assert fused.definition.kind is UdfKind.TABLE
        out = list(fused.definition.func(iter([("a",), ("b",)])))
        assert out == [("n",), ("n",)]

    def test_filter_before_aggregate_is_aggregate_kind(self):
        # A filter ahead of the aggregate keeps the pipeline
        # aggregate-typed; filtered rows simply never reach step().
        fused = generate_fused_udf(spec(
            "fagg", [("x", SqlType.TEXT)],
            [
                FilterStage("x != 'skip'", ("x",)),
                AggregateStage(("x",), "v1", builtin="count"),
            ],
            ["v1"], [SqlType.INT],
        ))
        assert fused.definition.kind is UdfKind.AGGREGATE
        state = fused.definition.func()
        state.step("a")
        state.step("skip")
        state.step("b")
        assert state.final() == 2


class TestRelationalStages:
    def test_filter_stage_drops_null_and_false(self):
        fused = generate_fused_udf(spec(
            "flt", [("x", SqlType.TEXT)],
            [
                ScalarUdfStage(LOWER, ("x",), "v1"),
                FilterStage("v1 != 'drop'", ("v1",)),
            ],
            ["v1"], [SqlType.TEXT],
        ))
        out = list(fused.definition.func(iter([("A",), ("DROP",), (None,)])))
        assert out == [("a",)]

    def test_distinct_stage(self):
        fused = generate_fused_udf(spec(
            "dst", [("x", SqlType.TEXT)],
            [
                ScalarUdfStage(LOWER, ("x",), "v1"),
                DistinctStage(("v1",)),
            ],
            ["v1"], [SqlType.TEXT],
        ))
        out = list(fused.definition.func(iter([("A",), ("a",), ("B",)])))
        assert out == [("a",), ("b",)]

    def test_expr_stage_bindings(self):
        import re

        regex = re.compile("^a")
        fused = generate_fused_udf(spec(
            "exprb", [("x", SqlType.TEXT)],
            [
                ExprStage(
                    "_rx.match(x) is not None", ("x",), "v1",
                    bindings=(("_rx", regex),),
                ),
            ],
            ["v1"], [SqlType.BOOL],
        ))
        assert fused.definition.func("abc") is True
        assert fused.definition.func("zzz") is False

    def test_case_style_non_strict_expr(self):
        fused = generate_fused_udf(spec(
            "casey", [("x", SqlType.INT)],
            [
                ExprStage("(1 if x is not None and x > 0 else None)",
                          ("x",), "v1", strict=False),
            ],
            ["v1"], [SqlType.INT],
        ))
        assert fused.definition.func(5) == 1
        assert fused.definition.func(None) is None


class TestSpecValidation:
    def test_undefined_stage_arg(self):
        with pytest.raises(JitError):
            spec(
                "bad", [("x", SqlType.TEXT)],
                [ScalarUdfStage(LOWER, ("missing",), "v1")],
                ["v1"], [SqlType.TEXT],
            )

    def test_undefined_output(self):
        with pytest.raises(JitError):
            spec(
                "bad", [("x", SqlType.TEXT)],
                [ScalarUdfStage(LOWER, ("x",), "v1")],
                ["nope"], [SqlType.TEXT],
            )

    def test_two_aggregates_rejected(self):
        with pytest.raises(JitError):
            generate_fused_udf(spec(
                "bad", [("x", SqlType.INT)],
                [
                    AggregateStage(("x",), "a1", builtin="sum"),
                    AggregateStage(("a1",), "a2", builtin="sum"),
                ],
                ["a2"], [SqlType.INT],
            ))

    def test_aggregate_stage_needs_exactly_one_impl(self):
        with pytest.raises(JitError):
            AggregateStage(("x",), "out")
        with pytest.raises(JitError):
            AggregateStage(("x",), "out", udf=COUNT, builtin="sum")

    def test_fused_from_names(self):
        fused = generate_fused_udf(spec(
            "names", [("x", SqlType.TEXT)],
            [
                ScalarUdfStage(LOWER, ("x",), "v1"),
                ScalarUdfStage(UPPER, ("v1",), "v2"),
            ],
            ["v2"], [SqlType.TEXT],
        ))
        assert fused.definition.fused_from == ("t_lower", "t_upper")
        assert fused.definition.is_fused


class TestSignatureKey:
    def base_spec(self, name="k1"):
        return spec(
            name, [("x", SqlType.TEXT)],
            [ScalarUdfStage(LOWER, ("x",), "v1")],
            ["v1"], [SqlType.TEXT],
        )

    def test_name_independent(self):
        assert (
            self.base_spec("a").signature_key == self.base_spec("b").signature_key
        )

    def test_structure_dependent(self):
        other = spec(
            "a", [("x", SqlType.TEXT)],
            [ScalarUdfStage(UPPER, ("x",), "v1")],
            ["v1"], [SqlType.TEXT],
        )
        assert self.base_spec().signature_key != other.signature_key
