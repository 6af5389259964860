"""Key codes and column dictionaries against the loops they replaced.

``LoopExecutor`` keeps the vector executor's group-by, distinct,
hash-join and set-operation loops as they were before the operators
moved onto :func:`repro.engine.keys.factorize`.  The properties below run
both executors over the same plans and require identical output columns,
group ids, kept rows and ``(left_idx, right_idx)``, row order included.
A second set checks the dictionary path of builtins, ``||``, LIKE and
comparisons against the per-row ``_map_rows`` path.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Tuple
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.engine import Database, expressions, functions
from repro.engine.executor_vector import VectorExecutor
from repro.engine.expressions import FunctionResolver, VectorEvaluator, compile
from repro.engine.keys import factorize, join_codes
from repro.engine.plan import Field
from repro.errors import ExecutionError
from repro.resilience.governor import guarded_iter
from repro.sql.parser import parse_expression
from repro.storage import Column, Table
from repro.types import SqlType

settings.register_profile(
    "expr_tier1", derandomize=True, max_examples=150, deadline=None
)
settings.register_profile("expr_slow", max_examples=2000, deadline=None)
_prof = settings.get_profile(
    "expr_slow" if os.environ.get("RUN_SLOW") else "expr_tier1"
)

INT, FLOAT, TEXT, BOOL, JSON = (
    SqlType.INT, SqlType.FLOAT, SqlType.TEXT, SqlType.BOOL, SqlType.JSON,
)


# ----------------------------------------------------------------------
# The operators before key codes (kept verbatim as the reference)
# ----------------------------------------------------------------------


class LoopExecutor(VectorExecutor):
    """The vector executor with its per-row hashing loops."""

    def _aggregate(self, node, ctes):
        columns, size = self._run(node.child, ctes)
        evaluator = VectorEvaluator(node.child.schema, self.resolver)

        if node.group_items:
            key_columns = [
                evaluator.evaluate(item.expr, columns, size, item.name)
                for item in node.group_items
            ]
            key_lists = [c.to_list() for c in key_columns]
            group_of: Dict[Tuple, int] = {}
            group_ids = np.empty(size, dtype=np.int64)
            first_row: List[int] = []
            for i, key in enumerate(guarded_iter(zip(*key_lists))):
                gid = group_of.get(key)
                if gid is None:
                    gid = len(group_of)
                    group_of[key] = gid
                    first_row.append(i)
                group_ids[i] = gid
            num_groups = len(group_of)
            out_key_columns = [col.take(first_row) for col in key_columns]
        else:
            group_ids = np.zeros(size, dtype=np.int64)
            num_groups = 1
            out_key_columns = []

        agg_columns: List[Column] = []
        for call, field in zip(node.agg_calls, node.schema[len(node.group_items):]):
            agg_columns.append(
                self._run_aggregate_call(
                    call, field, evaluator, columns, size, group_ids, num_groups
                )
            )
        return out_key_columns + agg_columns, num_groups

    def _hash_join(
        self, equi, left_cols, left_size, right_cols, right_size,
        left_schema, right_schema,
    ):
        left_eval = VectorEvaluator(left_schema, self.resolver)
        right_eval = VectorEvaluator(right_schema, self.resolver)
        left_keys = [
            left_eval.evaluate(l_expr, left_cols, left_size).to_list()
            for l_expr, _ in equi
        ]
        right_keys = [
            right_eval.evaluate(r_expr, right_cols, right_size).to_list()
            for _, r_expr in equi
        ]
        table: Dict[Tuple, List[int]] = {}
        for j, key in enumerate(zip(*right_keys)):
            if any(k is None for k in key):
                continue
            table.setdefault(key, []).append(j)
        left_idx: List[int] = []
        right_idx: List[int] = []
        matched = np.zeros(left_size, dtype=bool)
        for i, key in enumerate(guarded_iter(zip(*left_keys))):
            if any(k is None for k in key):
                continue
            for j in table.get(key, ()):
                left_idx.append(i)
                right_idx.append(j)
                matched[i] = True
        unmatched = np.flatnonzero(~matched)
        return (
            np.asarray(left_idx, dtype=np.int64),
            np.asarray(right_idx, dtype=np.int64),
            unmatched,
        )

    def _distinct(self, node, ctes):
        columns, size = self._run(node.child, ctes)
        lists = [c.to_list() for c in columns]
        seen = set()
        keep: List[int] = []
        for i, row in enumerate(
            guarded_iter(zip(*lists) if lists else ((),) * size)
        ):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        return [c.take(keep) for c in columns], len(keep)

    def _set_operation(self, node, ctes):
        left_cols, left_size = self._run(node.left, ctes)
        right_cols, right_size = self._run(node.right, ctes)
        if node.op == "UNION ALL":
            columns = [
                Column.concat(l.name, [l, r.renamed(l.name)])
                for l, r in zip(left_cols, right_cols)
            ]
            return columns, left_size + right_size
        left_rows = list(zip(*[c.to_list() for c in left_cols])) if left_cols else []
        right_rows = list(zip(*[c.to_list() for c in right_cols])) if right_cols else []
        if node.op == "UNION":
            rows = list(dict.fromkeys(left_rows + right_rows))
        elif node.op == "INTERSECT":
            right_set = set(right_rows)
            rows = list(dict.fromkeys(r for r in left_rows if r in right_set))
        elif node.op == "EXCEPT":
            right_set = set(right_rows)
            rows = list(dict.fromkeys(r for r in left_rows if r not in right_set))
        else:
            raise ExecutionError(f"unknown set operation {node.op!r}")
        columns = [
            Column(f.name, f.sql_type, [row[i] for row in rows])
            for i, f in enumerate(node.schema)
        ]
        return columns, len(rows)


def _recording(base):
    """``base`` plus a log of the group ids and join indices it used."""

    class Recording(base):
        def __init__(self, *args):
            super().__init__(*args)
            self.log: List[str] = []

        def _run_aggregate_call(self, call, field, evaluator, columns, size,
                                group_ids, num_groups):
            self.log.append(f"groups {num_groups} {group_ids.tolist()}")
            return super()._run_aggregate_call(
                call, field, evaluator, columns, size, group_ids, num_groups
            )

        def _hash_join(self, *args):
            out = super()._hash_join(*args)
            self.log.append(f"join {[a.tolist() for a in out]}")
            return out

    return Recording


LOOP, CODES = _recording(LoopExecutor), _recording(VectorExecutor)


def _shape(table: Table) -> List[Tuple[SqlType, str]]:
    # repr tells -0.0 from 0.0 and equates NaNs: the first-seen value
    # of a group must be the same one.
    return [(col.sql_type, repr(col.to_list())) for col in table.columns]


def _outcome(executor, planned):
    try:
        return _shape(executor.execute(planned)), executor.log
    except Exception as exc:  # e.g. a NaN into an INT output column
        return (type(exc), str(exc)), executor.log


def assert_same_as_loops(db: Database, sql: str) -> None:
    planned = db.plan(sql)
    expected = _outcome(LOOP(db.catalog, db.resolver), planned)
    assert _outcome(CODES(db.catalog, db.resolver), planned) == expected, sql


# ----------------------------------------------------------------------
# Generated tables and statements
# ----------------------------------------------------------------------

_NAN = float("nan")
_POOLS = {
    "i": (INT, [-2, 0, 1, 2, None]),
    "f": (FLOAT, [0.0, -0.0, _NAN, 1.0, 2.0, -1.5, None]),
    "s": (TEXT, ["", "a", "A", "é", "日本", "a ", None]),
    "b": (BOOL, [True, False, None]),
    "j": (JSON, ["x", "", 0, 1.5, None]),
}
_KEYS = ["i", "f", "s", "b", "j", "upper(s)", "substr(s, 1, 1) || '.'"]
#: Join and set-operation column pairs whose types compare like Python.
_PAIRS = [
    ("i", "i"), ("i", "f"), ("f", "i"), ("f", "f"), ("s", "s"),
    ("b", "b"), ("b", "i"), ("j", "j"), ("s", "j"),
]

_ROW = st.tuples(*[st.sampled_from(pool) for _, pool in _POOLS.values()])


def _table(name: str, rows) -> Table:
    schema = [("id", INT)] + [(col, t) for col, (t, _) in _POOLS.items()]
    return Table.from_rows(
        name, schema, [(n,) + tuple(row) for n, row in enumerate(rows)]
    )


def _db(left_rows, right_rows) -> Database:
    db = Database()
    db.register_table(_table("t", left_rows))
    db.register_table(_table("u", right_rows))
    return db


_ROWS = st.lists(_ROW, max_size=24)


@st.composite
def _statement(draw) -> str:
    shape = draw(st.sampled_from(["group", "distinct", "join", "setop"]))
    if shape == "group":
        keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3,
                             unique=True))
        items = ", ".join(f"{k} AS k{n}" for n, k in enumerate(keys))
        groups = ", ".join(f"k{n}" for n in range(len(keys)))
        return f"SELECT {items}, count(*) AS n FROM t GROUP BY {groups}"
    if shape == "distinct":
        keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3,
                             unique=True))
        items = ", ".join(f"{k} AS k{n}" for n, k in enumerate(keys))
        return f"SELECT DISTINCT {items} FROM t"
    pairs = draw(st.lists(st.sampled_from(_PAIRS), min_size=1, max_size=2))
    if shape == "join":
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        on = " AND ".join(f"t.{a} = u.{b}" for a, b in pairs)
        return f"SELECT t.id, u.id FROM t {kind} u ON {on}"
    op = draw(st.sampled_from(["UNION", "INTERSECT", "EXCEPT"]))
    left = ", ".join(a for a, _ in pairs)
    right = ", ".join(b for _, b in pairs)
    return f"SELECT {left} FROM t {op} SELECT {right} FROM u"


@settings(_prof)
@given(left=_ROWS, right=_ROWS, sql=_statement())
def test_key_code_operators_equal_the_loops(left, right, sql):
    assert_same_as_loops(_db(left, right), sql)


@settings(_prof, max_examples=max(_prof.max_examples // 3, 1))
@given(left=_ROWS, right=_ROWS, sql=_statement())
def test_cached_dictionaries_change_nothing(left, right, sql):
    """The same statements after every TEXT/JSON column of both tables
    computed its dictionary: factorize takes those codes instead."""
    db = _db(left, right)
    for name in ("t", "u"):
        for col in db.catalog.get(name).columns:
            col.dictionary()
    assert_same_as_loops(db, sql)


class TestFactorize:
    def test_first_seen_codes_and_first_rows(self):
        col = Column("s", TEXT, ["b", None, "a", "b", None, "c"])
        codes, first_rows = factorize([col])
        assert codes.tolist() == [0, 1, 2, 0, 1, 3]
        assert first_rows.tolist() == [0, 1, 2, 5]

    def test_numeric_nulls_nans_and_signed_zero(self):
        col = Column("f", FLOAT, [2.0, None, _NAN, -0.0, 0.0, _NAN, None, 2.0])
        codes, first_rows = factorize([col])
        assert codes.tolist() == [0, 1, 2, 3, 3, 4, 1, 0]
        assert first_rows.tolist() == [0, 1, 2, 3, 5]

    def test_multi_column_keys(self):
        a = Column("a", INT, [1, 1, 2, None, 1, None])
        b = Column("b", TEXT, ["x", "y", "x", "x", "x", "x"])
        codes, first_rows = factorize([a, b])
        assert codes.tolist() == [0, 1, 2, 3, 0, 3]
        assert first_rows.tolist() == [0, 1, 2, 3]

    def test_zero_columns_is_one_key(self):
        assert factorize([], 3)[0].tolist() == [0, 0, 0]
        assert factorize([], 3)[1].tolist() == [0]
        assert factorize([], 0)[1].tolist() == []

    def test_join_codes_never_match_null(self):
        left = [Column("a", INT, [1, None, 2])]
        right = [Column("b", FLOAT, [None, 1.0, 2.5])]
        lc, rc, _ = join_codes(left, right)
        assert lc[1] == -1 and rc[0] == -1
        assert lc[0] == rc[1] and lc[2] not in rc.tolist()

    def test_int_never_equals_the_float_it_rounds_to(self):
        big = 2 ** 53 + 1
        lc, rc, _ = join_codes(
            [Column("a", INT, [big])], [Column("b", FLOAT, [float(big)])]
        )
        assert lc[0] != rc[0]


# ----------------------------------------------------------------------
# Column dictionaries
# ----------------------------------------------------------------------


class TestColumnDictionary:
    def test_values_in_first_seen_order(self):
        col = Column("s", TEXT, ["b", "a", "b", None, "a", "b"])
        codes, values = col.dictionary()
        assert values.tolist() == ["b", "a", None]
        assert codes.tolist() == [0, 1, 0, 2, 1, 0]
        assert col.dictionary() is col.dictionary()  # cached

    def test_half_rows_rule_and_its_cached_verdict(self):
        assert Column("s", TEXT, ["a", "b", "a", "b"]).dictionary() is not None
        col = Column("s", TEXT, ["a", "b", "c", "a"])
        with mock.patch("repro.engine.keys.encode_objects") as encode:
            encode.return_value = None
            assert col.dictionary() is None
            assert col.dictionary() is None
        assert encode.call_count == 1

    def test_numeric_columns_have_none(self):
        assert Column("i", INT, [1, 1, 1, 1]).dictionary() is None

    def test_renamed_shares_and_derived_columns_drop(self):
        col = Column("s", TEXT, ["a", "b"] * 4)
        found = col.dictionary()
        assert col.renamed("t").dictionary(compute=False) is found
        mask = np.array([True, False] * 4)
        derived = [
            col.take([0, 2]), col.filter(mask), col.slice(0, 4),
            col.scatter(np.array([1]), Column("s", TEXT, ["c"])),
            Column.concat("s", [col, col]),
        ]
        for other in derived:
            assert other.dictionary(compute=False) is None
        assert col.filter(mask).dictionary()[1].tolist() == ["a"]


_TEXTS = ["", "ab", "Ab", "abc", "é", "日本語", "b%", " b ", None]
_DICT_EXPRS = [
    "substr(s, 1, 2)", "substr(s, 2)", "upper(s)", "length(s)",
    "trim(s)", "replace(s, 'b', 'x')", "instr(s, 'b')",
    "s || '.'", "'<' || s", "s || NULL", "upper(substr(s, 1, 1)) || '.'",
    "length(upper(s))", "s LIKE 'a%'", "s LIKE '%b_'", "'ab' LIKE s",
    "s = 'ab'", "'b' < s", "s >= 'Ab'", "s <> ''",
    "substr(s, 1, 1) || '.' = 'a.'",
]
_TEXT_FIELDS = (Field("s", TEXT, "t"),)


def _run(expr: str, col: Column):
    kernel = compile(parse_expression(expr), _TEXT_FIELDS, FunctionResolver())
    try:
        out = kernel([col], len(col))
    except Exception as exc:  # the error itself is the result
        return ("raised", type(exc), str(exc))
    return (out.sql_type, repr(out.to_list()))


def _per_row(expr: str, col: Column):
    def map_rows(func, sql_type, cols, size, varying):
        return expressions._map_rows(func, sql_type, cols, size)

    with mock.patch.object(expressions, "_map_strict", map_rows):
        return _run(expr, col)


@st.composite
def _text_column(draw) -> Column:
    """A low-cardinality TEXT column, maybe after a filter, maybe with
    its dictionary computed before the filter."""
    values = draw(st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=40))
    col = Column("s", TEXT, values)
    if draw(st.booleans()):
        col.dictionary()
    if draw(st.booleans()):
        mask = draw(st.lists(st.booleans(), min_size=len(values),
                             max_size=len(values)))
        col = col.filter(np.array(mask, dtype=bool))
    return col


@settings(_prof)
@given(col=_text_column(), expr=st.sampled_from(_DICT_EXPRS))
def test_dictionary_path_equals_map_rows(col, expr):
    assert _run(expr, col) == _per_row(expr, col)


def _boom(value: str) -> str:
    if value.startswith("b"):
        raise ValueError(f"bad value {value!r}")
    return value.upper()


@settings(_prof)
@given(col=_text_column())
def test_raising_builtin_raises_on_the_same_value(col):
    boom = functions.BuiltinScalar("boom", _boom, TEXT)
    with mock.patch.dict(functions.BUILTIN_SCALARS, {"boom": boom}):
        assert _run("boom(s)", col) == _per_row("boom(s)", col)


class TestDictionaryPathFires:
    def test_text_result_carries_a_deduplicated_dictionary(self):
        col = Column("s", TEXT, ["VLDB", "VOLDB", "EDBT", None] * 5)
        out = compile(
            parse_expression("substr(s, 1, 1) || '.'"), _TEXT_FIELDS,
            FunctionResolver(),
        )([col], len(col))
        codes, values = out.dictionary(compute=False)
        assert values.tolist() == ["V.", "E.", None]
        assert out.to_list() == ["V.", "V.", "E.", None] * 5
        assert codes.tolist() == [0, 0, 1, 2] * 5

    def test_builtin_runs_once_per_distinct_value(self):
        calls = []

        def count(value):
            calls.append(value)
            return value

        spy = functions.BuiltinScalar("spy", count, TEXT)
        col = Column("s", TEXT, ["a", "b"] * 10)
        with mock.patch.dict(functions.BUILTIN_SCALARS, {"spy": spy}):
            _run("spy(s)", col)
        assert calls == ["a", "b"]

    def test_high_cardinality_stays_per_row(self):
        col = Column("s", TEXT, [str(i) for i in range(10)])
        _run("upper(s)", col)
        assert col.dictionary(compute=False) is None


def test_nan_key_values_stay_distinct_end_to_end():
    db = _db([(0, _NAN, "a", True, None)] * 3, [])
    out = db.execute("SELECT f, count(*) AS n FROM t GROUP BY f")
    assert [n for n in out.columns[1].to_list()] == [1, 1, 1]
    assert all(math.isnan(v) for v in out.columns[0].to_list())
