"""Unit tests for the shared identity module (repro.cache.fingerprint)."""

import math
import os
import struct

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.cache import fingerprint as fp
from repro.sql.parser import parse
from repro.errors import TypeMismatchError
from repro.storage import Column
from repro.types import SqlType, coerce
from repro.udf import scalar_udf


class TestDigest:
    def test_stable_across_calls(self):
        assert fp.digest({"a": 1, "b": [2, 3]}) == fp.digest({"b": [2, 3], "a": 1})

    def test_distinguishes_values(self):
        assert fp.digest((1, 2)) != fp.digest((2, 1))

    def test_callables_by_content(self):
        def f(x):
            return x + 1

        def g(x):
            return x + 1

        def h(x):
            return x + 2

        assert fp.digest(f) == fp.digest(g)
        assert fp.digest(f) != fp.digest(h)

    def test_class_callables_by_method_content(self):
        class A:
            def step(self, v):
                self.t = v

            def final(self):
                return self.t

        class B:
            def step(self, v):
                self.t = v

            def final(self):
                return self.t

        class C:
            def step(self, v):
                self.t = v * 2

            def final(self):
                return self.t

        # The class name participates (conservative), so normalize it to
        # isolate method-content identity.
        B.__name__ = C.__name__ = "A"
        assert fp.digest(A) == fp.digest(B)
        assert fp.digest(A) != fp.digest(C)


class TestSqlFingerprint:
    def test_formatting_invariant(self):
        a = fp.sql_fingerprint("SELECT a FROM t WHERE a < 10")
        b = fp.sql_fingerprint("select   a\nfrom t\nwhere a<10")
        assert a == b

    def test_different_queries_differ(self):
        assert fp.sql_fingerprint("SELECT a FROM t") != fp.sql_fingerprint(
            "SELECT b FROM t"
        )

    def test_accepts_parsed_statements(self):
        stmt = parse("SELECT a FROM t")
        assert fp.sql_fingerprint(stmt) == fp.sql_fingerprint("SELECT a FROM t")


class TestDefinitionFingerprint:
    def test_changed_body_changes_fingerprint(self):
        @scalar_udf(name="df_u")
        def u1(x: int) -> int:
            return x + 1

        @scalar_udf(name="df_u")
        def u2(x: int) -> int:
            return x + 2

        assert fp.definition_fingerprint(u1.__udf__) != fp.definition_fingerprint(
            u2.__udf__
        )

    def test_identical_body_same_fingerprint(self):
        @scalar_udf(name="df_v")
        def v1(x: int) -> int:
            return x * 3

        @scalar_udf(name="df_v")
        def v2(x: int) -> int:
            return x * 3

        assert fp.definition_fingerprint(v1.__udf__) == fp.definition_fingerprint(
            v2.__udf__
        )

    def test_deterministic_flag_participates(self):
        @scalar_udf(name="df_w")
        def w1(x: int) -> int:
            return x

        @scalar_udf(name="df_w", deterministic=False)
        def w2(x: int) -> int:
            return x

        assert fp.definition_fingerprint(w1.__udf__) != fp.definition_fingerprint(
            w2.__udf__
        )


class TestTraceKey:
    def test_passthrough_tuple(self):
        # The trace cache's raw structural keys are the canonical form;
        # the shared derivation must not digest them.
        assert fp.trace_key(("a",)) == ("a",)
        assert fp.trace_key(["a", ("b", 1)]) == ("a", ("b", 1))


class TestStatementTables:
    def test_simple_select(self):
        stmt = parse("SELECT a FROM t WHERE a > 1")
        assert fp.statement_tables(stmt) == ["t"]

    def test_join_and_subquery(self):
        stmt = parse(
            "SELECT * FROM t1 JOIN (SELECT a FROM t2) s ON t1.a = s.a"
        )
        assert fp.statement_tables(stmt) == ["t1", "t2"]

    def test_cte_names_excluded(self):
        stmt = parse("WITH c AS (SELECT a FROM base) SELECT a FROM c")
        assert fp.statement_tables(stmt) == ["base"]

    def test_non_select_is_none(self):
        assert fp.statement_tables(parse("INSERT INTO t VALUES (1)")) is None

    def test_written_tables(self):
        assert fp.written_tables(parse("INSERT INTO t VALUES (1)")) == ["t"]
        assert fp.written_tables(parse("DELETE FROM x WHERE a = 1")) == ["x"]
        assert fp.written_tables(parse("UPDATE y SET a = 1")) == ["y"]
        assert fp.written_tables(parse("SELECT a FROM t")) == []


class TestConfigFingerprint:
    def test_any_field_participates(self):
        from repro.core.config import QFusorConfig

        base = QFusorConfig()
        assert fp.config_fingerprint(base) == fp.config_fingerprint(QFusorConfig())
        assert fp.config_fingerprint(base) != fp.config_fingerprint(
            base.ablated(reorder=False)
        )
        assert fp.config_fingerprint(base) != fp.config_fingerprint(
            QFusorConfig.cached()
        )


# ----------------------------------------------------------------------
# Value fingerprints (the memo key): distinct inputs never share a key,
# equal inputs always do, however the column's buffers are laid out
# ----------------------------------------------------------------------

settings.register_profile(
    "fp_tier1", derandomize=True, max_examples=200, deadline=None
)
settings.register_profile("fp_slow", max_examples=2000, deadline=None)
_prof = settings.get_profile(
    "fp_slow" if os.environ.get("RUN_SLOW") else "fp_tier1"
)

INT, FLOAT, TEXT, BOOL, JSON = (
    SqlType.INT, SqlType.FLOAT, SqlType.TEXT, SqlType.BOOL, SqlType.JSON
)
#: Small value pools, so that 0 / 0.0 / -0.0 / False / '0' / NULL meet
#: in one slot, and text that holds the separator can be re-cut.
_POOLS = {
    INT: [0, 1, -1, 2**40],
    FLOAT: [0.0, -0.0, 1.0, 0.5, math.inf],
    TEXT: ["", "0", "1", "a", "b", "a\x1f", "\x1fb", "a\x1fb", "None"],
    BOOL: [False, True],
    JSON: ["1", "0", '"a"', "[1, 2]", '{"a": 1}', "null", {"a": 1}],
}
_NUMERIC = (INT, FLOAT, BOOL)


def _slot(value):
    """A value's logical identity: type-tagged, -0.0 apart from 0.0,
    dicts in insertion order."""
    if value is None:
        return ("null",)
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, dict):
        return ("dict", tuple((k, _slot(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_slot(v) for v in value))
    return (type(value).__name__, value)


def _identity(columns):
    return tuple(
        (col.sql_type, tuple(_slot(v) for v in col.to_list()))
        for col in columns
    )


@st.composite
def _specs(draw):
    """One argument: an SQL type and its values."""
    sql_type = draw(st.sampled_from(list(_POOLS)))
    value = st.sampled_from(_POOLS[sql_type] + [None])
    return sql_type, draw(st.lists(value, max_size=4))


_batch_specs = st.lists(_specs(), min_size=1, max_size=3)


def _build(draw, spec):
    """A column for ``spec``, laid out one of three ways that must key
    alike: the constructor, raw buffers whose NULL slots hold garbage,
    or a slice of a larger column."""
    sql_type, values = spec
    name = draw(st.sampled_from(["a", "b"]))
    how = draw(st.sampled_from(["plain", "garbage", "slice"]))
    if how == "garbage" and sql_type in _NUMERIC:
        fill = st.sampled_from(_POOLS[sql_type])
        data = [draw(fill) if v is None else v for v in values]
        null = np.array([v is None for v in values], dtype=bool)
        return Column.from_numpy(name, sql_type, np.array(data), null)
    if how == "slice":
        pad = st.lists(st.sampled_from(_POOLS[sql_type]), max_size=3)
        before, after = draw(pad), draw(pad)
        big = Column(name, sql_type, before + values + after)
        return big.slice(len(before), len(before) + len(values))
    return Column(name, sql_type, values)


def _retyped(values, sql_type):
    if sql_type in (TEXT, JSON):
        return [None if v is None else str(v) for v in values]
    try:
        return [coerce(v, sql_type) for v in values]
    except TypeMismatchError:
        return None


def _neighbours(batch):
    """Near misses of one batch; each keys apart from it unless it holds
    the same typed values in the same argument split."""
    for i, (sql_type, values) in enumerate(batch):
        def swap(spec, i=i):
            return batch[:i] + [spec] + batch[i + 1:]

        for other in _POOLS:  # the same values under another SQL type
            cast = _retyped(values, other)
            if other is not sql_type and cast is not None:
                yield swap((other, cast))
        if sql_type is FLOAT:  # -0.0 against 0.0
            yield swap((FLOAT, [-v if v == 0 else v for v in values]))
        if values:  # a NULL in the first slot, or none there
            first = _POOLS[sql_type][0] if values[0] is None else None
            yield swap((sql_type, [first] + values[1:]))
        if sql_type is TEXT and len(values) >= 2 and None not in values:
            # The same text cut at other separators, into as many values.
            parts = "\x1f".join(values).split("\x1f")
            for cut in range(1, len(parts)):
                head, tail = parts[:cut], parts[cut:]
                recut = ["\x1f".join(head)] + tail[: len(values) - 2]
                recut.append("\x1f".join(tail[len(values) - 2:]))
                if len(recut) == len(values):
                    yield swap((TEXT, recut))
    # The values of a one-type batch split across other arguments.
    if len({sql_type for sql_type, _ in batch}) == 1:
        sql_type = batch[0][0]
        flat = [v for _, values in batch for v in values]
        yield [(sql_type, flat)]
        for cut in range(len(flat) + 1):
            yield [(sql_type, flat[:cut]), (sql_type, flat[cut:])]


@settings(_prof)
@given(_batch_specs, st.lists(_batch_specs, max_size=3), st.data())
def test_batch_key_is_injective_and_layout_blind(batch, others, data):
    """Keys agree exactly when the typed values and their argument split
    agree: across SQL types, NULLs, -0.0, separator-holding text and
    argument boundaries, and whatever the NULL slots or a slice's parent
    buffer hold."""
    specs = [batch, batch] + list(_neighbours(batch)) + others
    keyed = []
    for spec in specs:
        columns = [_build(data.draw, arg) for arg in spec]
        keyed.append((_identity(columns), fp.value_fingerprint(columns)))
    for ident_a, key_a in keyed:
        for ident_b, key_b in keyed:
            assert (ident_a == ident_b) == (key_a == key_b), (ident_a, ident_b)


_ROW_VALUES = [
    None, 0, 1, 1.0, 0.0, -0.0, True, False, "1", "0", "a\x1fb",
    {"a": 1, "b": 2}, {"b": 2, "a": 1}, ["a", "b"], ["a"], ("a",),
]




@settings(_prof)
@given(st.lists(
    st.lists(st.sampled_from(_ROW_VALUES), max_size=3).map(tuple),
    min_size=2, max_size=6,
))
def test_row_key_is_injective(rows):
    """The per-row path keys Python values by tagged reprs: dicts keep
    their insertion order, since a deterministic UDF may answer
    ``json.dumps(d)`` differently for each."""
    keyed = [(tuple(map(_slot, r)), fp.value_fingerprint(r)) for r in rows]
    for ident_a, key_a in keyed:
        for ident_b, key_b in keyed:
            assert (ident_a == ident_b) == (key_a == key_b), (ident_a, ident_b)


class TestValueFingerprint:
    def test_key_is_128_bits(self):
        key = fp.value_fingerprint([Column("a", INT, [1, 2])])
        assert len(key) == 32 and int(key, 16) >= 0

    def test_types_and_null_in_one_slot_differ(self):
        slots = [(INT, 1), (FLOAT, 1.0), (TEXT, "1"), (BOOL, True),
                 (INT, None), (INT, 0), (FLOAT, 0.0), (JSON, "1")]
        keys = {fp.value_fingerprint([Column("a", t, [v])]) for t, v in slots}
        assert len(keys) == len(slots)

    def test_negative_zero_differs(self):
        assert fp.value_fingerprint([Column("a", FLOAT, [-0.0])]) != (
            fp.value_fingerprint([Column("a", FLOAT, [0.0])])
        )

    def test_argument_split_differs(self):
        def split(*groups):
            return [Column("a", TEXT, list(g)) for g in groups]

        assert fp.value_fingerprint(split("ab", "c")) != (
            fp.value_fingerprint(split("a", "bc"))
        )
        assert fp.value_fingerprint([["a", "b"], ["c"]]) != (
            fp.value_fingerprint([["a"], ["b", "c"]])
        )

    def test_dictionary_columns_key_by_codes_and_values(self, monkeypatch):
        def encoded(values):
            column = Column("a", TEXT, values)
            assert column.dictionary() is not None
            return column

        batches = [
            ["x", "y", "x", "x"], ["x", "y", "x", "x"], ["x", "y", "y", "y"],
            ["y", "x", "y", "y"], ["x", None, "x", None], ["x", "y\x1fx", "x", "x"],
        ]
        columns = [encoded(values) for values in batches]
        # Keyed by codes and the distinct values, never the rows' strings.
        hashed = []
        real = fp._hash_objects

        def spy(h, tag, items):
            hashed.append(len(items))
            real(h, tag, items)

        monkeypatch.setattr(fp, "_hash_objects", spy)
        keys = [fp.value_fingerprint([column]) for column in columns]
        assert hashed == [2] * len(batches)
        assert keys[0] == keys[1]
        assert len(set(keys)) == len(keys) - 1

    def test_separator_in_text_differs(self):
        assert fp.value_fingerprint([Column("a", TEXT, ["a\x1fb"])]) != (
            fp.value_fingerprint([Column("a", TEXT, ["a", "b"])])
        )

    def test_null_garbage_and_slices_key_alike(self):
        a = Column.from_numpy(
            "a", FLOAT, np.array([1.5, 7.0]), np.array([False, True])
        )
        b = Column.from_numpy(
            "a", FLOAT, np.array([1.5, -0.0]), np.array([False, True])
        )
        big = Column("a", FLOAT, [9.0, 1.5, None, 3.0])
        key = fp.value_fingerprint([a])
        assert fp.value_fingerprint([b]) == key
        assert fp.value_fingerprint([big.slice(1, 3)]) == key

    def test_dict_insertion_order_differs_per_row(self):
        assert fp.value_fingerprint(({"a": 1, "b": 2},)) != (
            fp.value_fingerprint(({"b": 2, "a": 1},))
        )
