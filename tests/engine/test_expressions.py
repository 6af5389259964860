"""Unit tests for expression evaluation (compiled vector kernels vs the
row loop, and SQL three-valued logic edge cases)."""

import functools
import json
import os
import subprocess
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.expressions import (
    FunctionResolver, RowEvaluator, VectorEvaluator, compile, infer_type,
)
from repro.engine.plan import Field
from repro.engines import MiniDbAdapter, TupleDbAdapter
from repro.errors import ExecutionError, PlanError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_expression
from repro.sql.printer import to_sql
from repro.storage import Column, Table
from repro.types import SqlType
from repro.udf import UdfRegistry
from tests.conftest import TEST_UDFS

FIELDS = (
    Field("i", SqlType.INT, "t"),
    Field("f", SqlType.FLOAT, "t"),
    Field("s", SqlType.TEXT, "t"),
    Field("b", SqlType.BOOL, "t"),
)

ROWS = [
    (1, 1.5, "abc", True),
    (2, None, "XYZ", False),
    (None, 0.0, None, None),
    (-3, 2.25, "", True),
]

COLUMNS = [
    Column("i", SqlType.INT, [r[0] for r in ROWS]),
    Column("f", SqlType.FLOAT, [r[1] for r in ROWS]),
    Column("s", SqlType.TEXT, [r[2] for r in ROWS]),
    Column("b", SqlType.BOOL, [r[3] for r in ROWS]),
]


@pytest.fixture(scope="module")
def resolver():
    registry = UdfRegistry()
    registry.register_many(TEST_UDFS)
    return FunctionResolver(registry)


PARITY_EXPRESSIONS = [
    "i + 2",
    "i * f",
    "f / i",
    "i / 0",
    "i % 2",
    "-i",
    "i = 2",
    "i != 2",
    "i < f",
    "s = 'abc'",
    "i > 1 AND f > 1.0",
    "i > 1 OR f > 1.0",
    "NOT b",
    "i BETWEEN 0 AND 2",
    "i NOT BETWEEN 0 AND 2",
    "i IN (1, 2)",
    "i NOT IN (1, 2)",
    "s IS NULL",
    "s IS NOT NULL",
    "s LIKE 'a%'",
    "s || '!'",
    "CASE WHEN i > 0 THEN 'pos' WHEN i < 0 THEN 'neg' ELSE 'zero' END",
    "CASE i WHEN 1 THEN 'one' ELSE 'other' END",
    "CAST(i AS TEXT)",
    "CAST(f AS INT)",
    "upper(s)",
    "length(s)",
    "coalesce(s, 'fallback')",
    "t_lower(s)",
    "t_inc(i)",
    "CASE WHEN t_inc(i) > 2 THEN upper(s) ELSE s END",
    # -- every node type on the compiled kernels (named regressions) ---
    "CASE WHEN i > 1 THEN 'big' END",  # no ELSE: unmatched rows are NULL
    "CASE WHEN i > 0 THEN NULL ELSE s END",  # NULL literal branch
    "CASE WHEN b THEN 1 ELSE 2.5 END",  # mixed INT/FLOAT branches
    "CASE WHEN i < 0 THEN 1000 WHEN i > 1 THEN 30000 ELSE i END >= 2",
    "CASE WHEN i IS NULL THEN 'none' ELSE upper(s) END",  # call in a branch
    "CASE WHEN i > 100 THEN -s ELSE 'ok' END",  # untaken branch never runs
    "CASE s WHEN 'abc' THEN 1 WHEN NULL THEN 2 ELSE 3 END",  # NULL never matches
    "CASE i WHEN NULL THEN 'n' ELSE 'e' END",
    "CASE t_inc(i) WHEN 2 THEN 'two' WHEN 3 THEN 'three' END",
    "CASE WHEN b THEN CASE WHEN i > 1 THEN f ELSE 0 END END",  # nested
    "s BETWEEN 'A' AND 'b'",
    "s NOT BETWEEN 'A' AND 'b'",
    "f BETWEEN i AND 2",
    "s IN ('abc', NULL)",
    "s NOT IN ('abc', NULL)",
    "i IN (1, NULL)",
    "i NOT IN (2, NULL)",
    "i IN (f, 2)",
    "CAST(s AS INT)",  # failing casts are NULL
    "CAST(s AS FLOAT)",
    "CAST(b AS INT)",
    "CAST(i AS BOOL)",
    "CAST(f AS TEXT)",
    "CAST(i AS FLOAT)",
    "-f",
    "NOT (i > 1)",
    "NOT (f > 1.0 AND b)",
    "(i IS NULL) OR b",
    "s LIKE s",
    "s LIKE '%b_'",
    "s LIKE NULL",
    "i || s",
    "s || NULL",
    "substr(s, 1, 1) || '.'",
    "nullif(i, 2)",
    "coalesce(NULL, s)",
    "1 + 2",
    "NULL IS NULL",
]


@pytest.mark.parametrize("expr_sql", PARITY_EXPRESSIONS)
def test_vector_row_parity(resolver, expr_sql):
    """Vectorized and row evaluation must agree on every row."""
    expr = parse_expression(expr_sql)
    vector = VectorEvaluator(FIELDS, resolver)
    row_eval = RowEvaluator(FIELDS, resolver)
    vectorized = vector.evaluate(expr, COLUMNS, len(ROWS)).to_list()
    per_row = [row_eval.evaluate(expr, row) for row in ROWS]
    normalized = [
        bool(v) if isinstance(v, bool) else v for v in vectorized
    ]
    assert normalized == pytest.approx(per_row) if all(
        isinstance(v, float) for v in per_row if v is not None
    ) else normalized == per_row


class TestThreeValuedLogic:
    def row(self, expr_sql, row):
        registry = UdfRegistry()
        registry.register_many(TEST_UDFS)
        evaluator = RowEvaluator(FIELDS, FunctionResolver(registry))
        return evaluator.evaluate(parse_expression(expr_sql), row)

    def test_null_comparison_is_null(self):
        assert self.row("i = 1", (None, None, None, None)) is None

    def test_false_and_null_is_false(self):
        assert self.row("i > 5 AND s IS NULL", (1, None, None, None)) is False

    def test_true_or_null_is_true(self):
        assert self.row("i = 1 OR f > 0", (1, None, "x", None)) is True

    def test_null_and_true_is_null(self):
        assert self.row("f > 0 AND i = 1", (1, None, "x", None)) is None

    def test_in_list_with_null_member(self):
        assert self.row("i IN (1, NULL)", (2, None, None, None)) is None
        assert self.row("i IN (2, NULL)", (2, None, None, None)) is True

    def test_between_null_bound(self):
        assert self.row("i BETWEEN 0 AND f", (1, None, None, None)) is None

    def test_division_by_zero_is_null(self):
        assert self.row("i / 0", (1, None, None, None)) is None
        assert self.row("i % 0", (1, None, None, None)) is None


class TestPredicateMask:
    def test_null_predicate_drops_row(self, resolver):
        evaluator = VectorEvaluator(FIELDS, resolver)
        mask = evaluator.predicate_mask(
            parse_expression("f > 1.0"), COLUMNS, len(ROWS)
        )
        assert mask.tolist() == [True, False, False, True]


class TestTypeInference:
    @pytest.mark.parametrize(
        "expr_sql,expected",
        [
            ("i + 1", SqlType.INT),
            ("i + f", SqlType.FLOAT),
            ("i / 2", SqlType.FLOAT),
            ("i = 1", SqlType.BOOL),
            ("s || 'x'", SqlType.TEXT),
            ("upper(s)", SqlType.TEXT),
            ("length(s)", SqlType.INT),
            ("t_inc(i)", SqlType.INT),
            ("CASE WHEN b THEN 1 ELSE 2 END", SqlType.INT),
            ("CAST(i AS FLOAT)", SqlType.FLOAT),
            ("i IS NULL", SqlType.BOOL),
        ],
    )
    def test_inferred(self, resolver, expr_sql, expected):
        assert infer_type(parse_expression(expr_sql), FIELDS, resolver) is expected

    def test_unknown_column_raises(self, resolver):
        with pytest.raises(PlanError):
            infer_type(parse_expression("zz + 1"), FIELDS, resolver)

    def test_unknown_function_raises(self, resolver):
        with pytest.raises(PlanError):
            infer_type(parse_expression("nope(i)"), FIELDS, resolver)


class TestErrors:
    def test_aggregate_in_scalar_context_rejected(self, resolver):
        evaluator = VectorEvaluator(FIELDS, resolver)
        with pytest.raises(ExecutionError):
            evaluator.evaluate(
                parse_expression("t_count(s)"), COLUMNS, len(ROWS)
            )

    def test_table_udf_in_row_context_rejected(self, resolver):
        evaluator = RowEvaluator(FIELDS, resolver)
        with pytest.raises(ExecutionError):
            evaluator.evaluate(parse_expression("t_tokens(s)"), ROWS[0])


# ----------------------------------------------------------------------
# Compiled kernels == the row loop, over generated expression trees
# ----------------------------------------------------------------------

settings.register_profile(
    "expr_tier1", derandomize=True, max_examples=150, deadline=None
)
settings.register_profile("expr_slow", max_examples=2000, deadline=None)
_prof = settings.get_profile(
    "expr_slow" if os.environ.get("RUN_SLOW") else "expr_tier1"
)

INT, FLOAT, TEXT, BOOL = SqlType.INT, SqlType.FLOAT, SqlType.TEXT, SqlType.BOOL
_TEXTS = ["", "abc", "Abc", "12", "1.5", "a%", "x_y", " pad "]
_FLOATS = [0.0, 0.5, -1.5, 2.25, 9.0]
_VALUES = {
    INT: st.integers(-9, 9), FLOAT: st.sampled_from(_FLOATS),
    TEXT: st.sampled_from(_TEXTS), BOOL: st.booleans(),
}
_NULL = st.just(ast.Literal(None))


def _call(name, *arg_strategies):
    return st.builds(
        lambda *args: ast.FunctionCall(name, tuple(args)), *arg_strategies
    )


def _binary(ops, left, right):
    return st.builds(ast.BinaryOp, st.sampled_from(ops), left, right)


@functools.lru_cache(maxsize=None)
def _tree(sql_type, depth, eager=True, cols=True):
    """Expressions of ``sql_type``, nesting <= ``depth``, well typed by
    construction.  ``eager`` is False below the positions a row loop
    evaluates lazily (CASE, the right of AND/OR, IN members): the
    value-dependent raisers (``sqrt``/``ln``) stay out of those, so
    "the row loop raises" and "the kernel raises" coincide.  With
    ``cols`` False the tree reads no column (the ``OneRow`` input)."""
    leaves = [st.builds(ast.Literal, _VALUES[sql_type]), _NULL]
    if cols:
        leaves.append(st.just(ast.ColumnRef("ifsb"[[INT, FLOAT, TEXT, BOOL].index(sql_type)])))
    if depth == 0:
        return st.one_of(leaves)

    def sub(of_type, keep_eager=True):
        return _tree(of_type, depth - 1, eager and keep_eager, cols)

    number = st.one_of(sub(INT), sub(FLOAT))
    printable = st.one_of(sub(TEXT), sub(INT))  # str() agrees on both sides
    options = leaves + [_case(sql_type, depth, cols)]
    if sql_type is INT:
        options += [
            _binary(["+", "-", "*", "%"], sub(INT), sub(INT)),
            st.builds(ast.UnaryOp, st.just("-"), sub(INT)),
            st.builds(ast.Cast, st.one_of(number, sub(TEXT), sub(BOOL)), st.just(INT)),
            _call("length", sub(TEXT)), _call("abs", sub(INT)), _call("t_inc", sub(INT)),
        ]
    elif sql_type is FLOAT:
        options += [
            _binary(["+", "-", "*"], sub(FLOAT), number),
            _binary(["/"], number, number),
            st.builds(ast.UnaryOp, st.just("-"), sub(FLOAT)),
            st.builds(ast.Cast, st.one_of(number, sub(TEXT)), st.just(FLOAT)),
        ]
        if eager:
            options += [_call("sqrt", number), _call("ln", number)]
    elif sql_type is TEXT:
        options += [
            _binary(["||"], printable, printable),
            st.builds(ast.Cast, st.one_of(printable, sub(BOOL)), st.just(TEXT)),
            _call("upper", sub(TEXT)), _call("t_lower", sub(TEXT)),
            _call("substr", sub(TEXT), sub(INT), sub(INT)),
            _call("coalesce", sub(TEXT), sub(TEXT)),
        ]
    else:
        compare = ["=", "!=", "<", "<=", ">", ">="]
        members = st.lists(st.one_of(sub(INT, False), _NULL), min_size=1, max_size=3)
        words = st.lists(st.one_of(sub(TEXT, False), _NULL), min_size=1, max_size=3)
        options += [
            _binary(compare, number, number),
            _binary(compare + ["LIKE"], sub(TEXT), sub(TEXT)),
            _binary(["AND", "OR"], sub(BOOL), sub(BOOL, False)),
            st.builds(ast.UnaryOp, st.just("NOT"), sub(BOOL)),
            st.builds(ast.Between, number, number, number, st.booleans()),
            st.builds(ast.Between, sub(TEXT), sub(TEXT), sub(TEXT), st.booleans()),
            st.builds(ast.InList, number, members.map(tuple), st.booleans()),
            st.builds(ast.InList, sub(TEXT), words.map(tuple), st.booleans()),
            st.builds(
                ast.IsNull, st.one_of(number, sub(TEXT), sub(BOOL)), st.booleans()
            ),
            st.builds(ast.Cast, sub(INT), st.just(BOOL)),
        ]
    return st.one_of(options)


def _case(sql_type, depth, cols):
    """Searched and simple CASE, with and without ELSE, NULL results and
    (for FLOAT) mixed INT/FLOAT branches; everything below is lazy."""

    def lazy(of_type):
        return _tree(of_type, depth - 1, False, cols)

    branch = st.one_of(lazy(FLOAT), lazy(INT)) if sql_type is FLOAT else lazy(sql_type)
    result = st.one_of(branch, _NULL)
    otherwise = st.one_of(st.none(), result)

    def whens(cond):
        return st.lists(st.tuples(cond, result), min_size=1, max_size=3).map(tuple)

    simple = [
        st.builds(ast.CaseExpr, whens(st.one_of(lazy(key), _NULL)), lazy(key), otherwise)
        for key in (INT, TEXT)
    ]
    return st.one_of(st.builds(ast.CaseExpr, whens(lazy(BOOL)), st.none(), otherwise), *simple)


_ANY_TREE = st.one_of(*[_tree(t, 4) for t in (INT, FLOAT, TEXT, BOOL)])
_CONSTANT_TREE = st.one_of(*[_tree(t, 3, cols=False) for t in (INT, FLOAT, TEXT, BOOL)])
_ROW = st.tuples(*[st.one_of(st.none(), _VALUES[t]) for t in (INT, FLOAT, TEXT, BOOL)])


def _assert_kernel_matches_rows(resolver, expr, fields, rows, size):
    row_eval = RowEvaluator(fields, resolver)
    try:
        expected = [row_eval.evaluate(expr, row) for row in rows]
    except Exception as exc:  # the kernel must fail the same way
        with pytest.raises(type(exc)):
            compile(expr, fields, resolver)(_columns(fields, rows), size)
        return
    actual = compile(expr, fields, resolver)(_columns(fields, rows), size).to_list()
    assert actual == expected, to_sql(expr)


def _columns(fields, rows):
    return [
        Column(field.name, field.sql_type, [row[i] for row in rows])
        for i, field in enumerate(fields)
    ]


@settings(_prof)
@given(expr=_ANY_TREE, rows=st.lists(_ROW, max_size=6))
def test_compiled_kernel_equals_row_loop(resolver, expr, rows):
    _assert_kernel_matches_rows(resolver, expr, FIELDS, rows, len(rows))


@settings(_prof, max_examples=_prof.max_examples // 3)
@given(expr=_CONSTANT_TREE)
def test_compiled_kernel_equals_row_loop_on_one_row_input(resolver, expr):
    """A FROM-less select evaluates over zero columns and one row."""
    _assert_kernel_matches_rows(resolver, expr, (), [()], 1)


class TestCaseEvaluationOrder:
    """Eager calls, lazy branches."""

    def test_untaken_branch_cannot_raise(self, resolver):
        expr = parse_expression("CASE WHEN i > 100 THEN -s ELSE 'ok' END")
        out = compile(expr, FIELDS, resolver)(COLUMNS, len(ROWS))
        assert out.to_list() == ["ok"] * len(ROWS)

    def test_taken_branch_raises_like_the_row_loop(self, resolver):
        expr = parse_expression("CASE WHEN i > 0 THEN -s ELSE 'ok' END")
        with pytest.raises(TypeError):
            RowEvaluator(FIELDS, resolver).evaluate(expr, ROWS[0])
        with pytest.raises(TypeError):
            compile(expr, FIELDS, resolver)(COLUMNS, len(ROWS))

    def test_calls_inside_case_run_over_the_whole_batch(self, resolver):
        """A function call under a CASE is evaluated for every row of
        the batch, taken or not (the bulk UDF path and its row-error
        policy depend on it) — so it can raise where a row loop,
        which never reaches it, does not."""
        expr = parse_expression("CASE WHEN i > 100 THEN sqrt(i) ELSE 0.0 END")
        row_eval = RowEvaluator(FIELDS, resolver)
        assert [row_eval.evaluate(expr, row) for row in ROWS] == [0.0] * len(ROWS)
        with pytest.raises(ValueError):
            compile(expr, FIELDS, resolver)(COLUMNS, len(ROWS))

    def test_non_bool_condition_is_never_true(self, resolver):
        expr = parse_expression("CASE WHEN i THEN 'yes' ELSE 'no' END")
        row_eval = RowEvaluator(FIELDS, resolver)
        out = compile(expr, FIELDS, resolver)(COLUMNS, len(ROWS))
        assert out.to_list() == [row_eval.evaluate(expr, row) for row in ROWS]
        assert out.to_list() == ["no"] * len(ROWS)


class TestColumnBinding:
    """One binder for the planner and both evaluators."""

    MIXED = (Field("x", SqlType.INT, "a"), Field("x", SqlType.INT, None))
    QUALIFIED = (Field("x", SqlType.INT, "a"), Field("x", SqlType.INT, "b"))

    def test_unqualified_ref_prefers_the_unqualified_field(self, resolver):
        expr = parse_expression("x")
        columns = [Column("x", SqlType.INT, [1]), Column("x", SqlType.INT, [2])]
        assert compile(expr, self.MIXED, resolver)(columns, 1).to_list() == [2]
        assert RowEvaluator(self.MIXED, resolver).evaluate(expr, (1, 2)) == 2
        assert RowEvaluator(self.MIXED, resolver).evaluate(
            parse_expression("a.x"), (1, 2)
        ) == 1

    def test_two_qualified_fields_stay_ambiguous(self, resolver):
        expr = parse_expression("x")
        with pytest.raises(PlanError, match="ambiguous"):
            compile(expr, self.QUALIFIED, resolver)
        with pytest.raises(PlanError, match="ambiguous"):
            RowEvaluator(self.QUALIFIED, resolver).evaluate(expr, (1, 2))

    @pytest.mark.parametrize("adapter_cls", [MiniDbAdapter, TupleDbAdapter])
    def test_join_then_project_agrees_across_engines(self, adapter_cls):
        """No FROM item is unqualified (tables, subqueries and table
        functions all carry a binding), so a join never yields the mixed
        schema above: a name both sides export stays ambiguous on both
        executors, and qualifying it resolves on both."""
        adapter = adapter_cls()
        adapter.register_table(Table.from_rows(
            "w", [("token", SqlType.TEXT), ("n", SqlType.INT)], [("left", 1)]
        ))
        adapter.register_table(Table.from_rows(
            "docs", [("body", SqlType.TEXT)], [("hello world",)]
        ))
        for udf in TEST_UDFS:
            adapter.register_udf(udf)
        joined = "FROM w, t_tokens((SELECT body FROM docs))"
        with pytest.raises(PlanError, match="ambiguous"):
            adapter.execute_sql(f"SELECT token, n {joined}")
        rows = adapter.execute_sql(f"SELECT w.token, n + 1 AS m {joined}").to_rows()
        assert rows == [("left", 2), ("left", 2)]

    def test_row_evaluator_binds_each_ref_once(self, resolver, monkeypatch):
        calls = []
        real = Field.matches
        monkeypatch.setattr(
            Field, "matches", lambda self, ref: calls.append(ref) or real(self, ref)
        )
        evaluator = RowEvaluator(FIELDS, resolver)
        expr = parse_expression("i + i")
        for row in ROWS:
            evaluator.evaluate(expr, row)
        assert len(calls) == len(FIELDS)  # one scan, not one per row per ref


# ----------------------------------------------------------------------
# Cost shape (no wall clock) and thread safety
# ----------------------------------------------------------------------


_COST_PROBE = '''
import json, sys
from repro.engine.expressions import FunctionResolver, compile, truth_mask
from repro.engine.plan import Field
from repro.sql.parser import parse_expression
from repro.storage import Column
from repro.types import SqlType

SIZE = 10_000


def python_calls(fn):
    """Python-level function calls fn() makes (C calls are not counted)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def probe(sql, name, sql_type, values):
    kernel = compile(
        parse_expression(sql), (Field(name, sql_type, "t"),), FunctionResolver()
    )
    columns, out = [Column(name, sql_type, values)], []
    calls = python_calls(lambda: out.append(kernel(columns, SIZE)))
    return calls, out[0]


xs = [(i * 7919) % 40_000 for i in range(SIZE)]
clip_calls, clipped = probe(
    "CASE WHEN x < 1000 THEN 1000 WHEN x > 30000 THEN 30000 ELSE x END >= 30000",
    "x", SqlType.INT, xs,
)
words = [None if i % 97 == 0 else f"w{i}" for i in range(SIZE)]
substr_calls, initials = probe("substr(s, 1, 1) || \'.\'", "s", SqlType.TEXT, words)
print(json.dumps({
    "clip_calls": clip_calls,
    "clip_ok": truth_mask(clipped).tolist() == [x >= 30000 for x in xs],
    "substr_calls": substr_calls,
    "substr_ok": initials.to_list() == [None if w is None else "w." for w in words],
}))
'''


def test_cost_shape_no_per_row_interpreter():
    """Deterministic cost guard (no wall clock): Python-level calls under
    ``sys.setprofile`` for 10 000 rows.  The translated ``clip``
    predicate must run in whole-column operations only, and a builtin
    projection may make one Python call per row per builtin (``substr``;
    ``||`` none).  Measured in a fresh interpreter: profiling hooks
    inside a long-lived test process are hostage to its state (CPython
    3.11 spins forever in a profiled frame once
    ``governor._clear_pending_interrupt`` has left the eval breaker set)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = subprocess.run(
        [sys.executable, "-c", _COST_PROBE], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    seen = json.loads(probe.stdout)
    assert seen["clip_ok"] and seen["substr_ok"], seen
    assert seen["clip_calls"] < 1000, seen
    assert seen["substr_calls"] <= 10_000 + 100, seen


def test_one_compiled_kernel_is_safe_across_threads(resolver):
    size, threads = 8_000, 8
    rows = [ROWS[(i * 7) % len(ROWS)] for i in range(size)]
    columns = _columns(FIELDS, rows)
    kernel = compile(
        parse_expression(
            "CASE WHEN i > 1 THEN upper(s) WHEN s LIKE 'a%' THEN s || '!' "
            "ELSE CAST(i IN (1, NULL) AS TEXT) END"
        ),
        FIELDS, resolver,
    )
    serial = kernel(columns, size).to_list()
    step = size // threads
    pieces = [None] * threads

    def work(slot):
        chunk = [col.slice(slot * step, (slot + 1) * step) for col in columns]
        pieces[slot] = kernel(chunk, step).to_list()

    workers = [threading.Thread(target=work, args=(slot,)) for slot in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert [value for piece in pieces for value in piece] == serial
