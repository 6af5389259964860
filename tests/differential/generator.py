"""Seeded random query/table/UDF generation for differential testing.

Every case is derived from a single integer seed through
``random.Random`` — the same seed always yields the same tables and the
same SQL, so failures reported by CI reproduce locally byte-for-byte.

The generated dialect deliberately stays inside the intersection of the
mini engines and stdlib ``sqlite3`` semantics:

* no ``LIKE`` (sqlite matches ASCII case-insensitively);
* no ``/`` (sqlite truncates integer division);
* no string concatenation (``||`` precedence and CONCAT availability
  differ);
* floats only on a 0.25 grid, so comparisons and equality are exact in
  IEEE-754 on both sides;
* UDF aggregates never run over a possibly-empty input: sqlite3 returns
  NULL for a user aggregate that saw no rows, the engines return the
  aggregate's identity.  (Global UDF aggregates are generated only
  without a WHERE clause; generated tables are never empty.)

Table-UDF cases exercise the five engine adapters only — sqlite has no
table-valued Python UDFs — and are marked ``oracle_ok=False``.

A second, JSON table (:func:`make_json_table`) is loaded from raw mixed
values — numbers, booleans, lists, dicts, tuples, NULL and already
serialized text — and the fixed :data:`JSON_QUERIES` run over it: a
JSON column holds serialized text, so every lane and the sqlite oracle
key, concatenate and decode the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.storage import Table
from repro.types import SqlType
from repro.udf import aggregate_udf, scalar_udf, table_udf

__all__ = [
    "DIFF_UDFS", "ORACLE_UDFS", "QuerySpec", "DiffCase",
    "make_table", "make_case", "normalize", "repro_snippet",
    "CHUNK_SIZE", "TABLE_NAME", "JSON_QUERIES", "make_json_case",
]

#: Consecutive seeds in one chunk share the same generated table, so the
#: session-scoped engines only re-register tables once per chunk.
CHUNK_SIZE = 10

TABLE_NAME = "data"


# ----------------------------------------------------------------------
# The UDF pool (module level so inspect.getsource sees real sources)
# ----------------------------------------------------------------------


@scalar_udf
def d_add7(x: int) -> int:
    return x + 7


@scalar_udf
def d_mul3(x: int) -> int:
    return x * 3


@scalar_udf
def d_neg(x: int) -> int:
    return -x


@scalar_udf
def d_clip10(x: int) -> int:
    return 10 if x > 10 else (-10 if x < -10 else x)


@scalar_udf
def d_lower(s: str) -> str:
    return s.lower()


@scalar_udf
def d_rev(s: str) -> str:
    return s[::-1]


@scalar_udf
def d_first(s: str) -> str:
    return s.split()[0] if s else ""


@scalar_udf
def d_len(s: str) -> int:
    return len(s)


@aggregate_udf
class d_cnt:
    def __init__(self):
        self.n = 0

    def step(self, value: str):
        self.n += 1

    def final(self) -> int:
        return self.n


@aggregate_udf
class d_lensum:
    def __init__(self):
        self.total = 0

    def step(self, value: str):
        self.total += len(value)

    def final(self) -> int:
        return self.total


@aggregate_udf
class d_icnt:
    def __init__(self):
        self.n = 0

    def step(self, value: int):
        self.n += 1

    def final(self) -> int:
        return self.n


@aggregate_udf
class d_imax:
    def __init__(self):
        self.best = None

    def step(self, value: int):
        if self.best is None or value > self.best:
            self.best = value

    def final(self) -> int:
        return self.best


@table_udf(output=("tok",), types=(str,))
def d_tokens(inp_datagen):
    for (text,) in inp_datagen:
        if text is None:
            continue
        for token in text.split():
            yield (token,)


@table_udf(output=("word", "wlen"), types=(str, int))
def d_words(inp_datagen):
    for (text,) in inp_datagen:
        if text is None:
            continue
        for token in text.split():
            yield (token, len(token))


@scalar_udf
def d_jlen(j: list) -> int:
    return len(j) if isinstance(j, (list, dict, str)) else -1


DIFF_UDFS = [
    d_add7, d_mul3, d_neg, d_clip10, d_lower, d_rev, d_first, d_len,
    d_cnt, d_icnt, d_lensum, d_imax, d_tokens, d_words, d_jlen,
]

#: The subset registrable on stdlib sqlite3 (no table-valued UDFs).
ORACLE_UDFS = [
    d_add7, d_mul3, d_neg, d_clip10, d_lower, d_rev, d_first, d_len,
    d_cnt, d_icnt, d_lensum, d_imax, d_jlen,
]

_INT_UDFS = ("d_add7", "d_mul3", "d_neg", "d_clip10")
_TXT_UDFS = ("d_lower", "d_rev", "d_first")
_WORDS = ("alpha", "Beta", "GAMMA", "delta", "zig", "Zag", "mu")
_GROUPS = ("a", "b", "c", "d")
#: Strict TEXT builtins over low-cardinality text: GROUP BY / DISTINCT
#: keys the vector executor evaluates once per dictionary value.
_DICT_KEYS = (
    "upper(grp)", "substr(grp, 1, 1)", "length(grp)", "trim(grp)",
    "replace(grp, 'a', 'x')", "upper(substr(txt, 1, 1))",
    "substr(txt, 1, 2)",
)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


def make_table(chunk_seed: int) -> Table:
    """The shared table for one chunk of cases (never empty)."""
    rng = random.Random(0xD1FF ^ chunk_seed)
    n = rng.randint(24, 40)
    rows = []
    for i in range(1, n + 1):
        grp = rng.choice(_GROUPS) if rng.random() > 0.1 else None
        num = rng.randint(-12, 12) if rng.random() > 0.15 else None
        val = rng.randint(-20, 40) * 0.25 if rng.random() > 0.15 else None
        if rng.random() > 0.1:
            txt = " ".join(
                rng.choice(_WORDS) for _ in range(rng.randint(1, 3))
            )
        else:
            txt = None
        rows.append((i, grp, num, val, txt))
    return Table.from_rows(
        TABLE_NAME,
        [
            ("id", SqlType.INT),
            ("grp", SqlType.TEXT),
            ("num", SqlType.INT),
            ("val", SqlType.FLOAT),
            ("txt", SqlType.TEXT),
        ],
        rows,
    )


JSON_TABLE_NAME = "jdata"

#: Raw values for the JSON table.  Several pairs are equal in Python but
#: not as text (``1``/``1.0``/``True``, ``[1, 2]``/``[1.0, 2]``, two
#: key orders), and the text entries equal other values' serialization.
_JSON_VALUES = (
    1, 1.0, True, False, 0, [1, 2], [1.0, 2], (1, 2), [], {},
    {"a": 1, "b": [2]}, {"b": [2], "a": 1}, ["x"], None, None,
    "[1,2]", '"x"', "true", '{"a":1,"b":[2]}',
)

#: Statements over the JSON table: text concatenation, every hashing
#: operator, and a UDF that decodes the text.
JSON_QUERIES = (
    f"SELECT id, j || 'x' AS c FROM {JSON_TABLE_NAME}",
    f"SELECT DISTINCT j FROM {JSON_TABLE_NAME}",
    f"SELECT j, count(*) AS n FROM {JSON_TABLE_NAME} GROUP BY j",
    f"SELECT a.id AS l, b.id AS r FROM {JSON_TABLE_NAME} AS a "
    f"JOIN {JSON_TABLE_NAME} AS b ON a.j = b.j",
    f"SELECT j FROM {JSON_TABLE_NAME} WHERE id < 10 "
    f"UNION SELECT j FROM {JSON_TABLE_NAME} WHERE id >= 10",
    f"SELECT id, d_jlen(j) AS n FROM {JSON_TABLE_NAME}",
)


def make_json_table(seed: int) -> Table:
    """Every raw value of :data:`_JSON_VALUES` plus a few repeats, in
    a seeded order; drawn from an RNG of its own, so :func:`make_table`
    is untouched."""
    rng = random.Random(0x750E ^ seed)
    values = list(_JSON_VALUES) + [
        rng.choice(_JSON_VALUES) for _ in range(rng.randint(4, 12))
    ]
    rng.shuffle(values)
    return Table.from_rows(
        JSON_TABLE_NAME, [("id", SqlType.INT), ("j", SqlType.JSON)],
        [(i, value) for i, value in enumerate(values, 1)],
    )


# ----------------------------------------------------------------------
# Query IR — small enough to render and to shrink structurally
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """One generated query, structured for rendering and minimization."""

    shape: str  # "scalar" | "group" | "global" | "table_from" | "table_sel"
    items: Tuple[str, ...]
    where: Optional[str] = None
    group_by: Tuple[str, ...] = ()
    order_by: Tuple[str, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    from_clause: str = TABLE_NAME

    def sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self.items))
        parts.append(f"FROM {self.from_clause}")
        if self.where:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass
class DiffCase:
    """Everything needed to run one differential comparison."""

    seed: int
    table: Table
    query: QuerySpec
    #: False for table-UDF queries sqlite cannot express.
    oracle_ok: bool = True

    @property
    def sql(self) -> str:
        return self.query.sql()

    def with_query(self, query: QuerySpec) -> "DiffCase":
        return DiffCase(self.seed, self.table, query, self.oracle_ok)

    def with_rows(self, rows: Sequence[tuple]) -> "DiffCase":
        table = Table.from_rows(
            self.table.name, list(self.table.schema), list(rows)
        )
        return DiffCase(self.seed, table, self.query, self.oracle_ok)


# ----------------------------------------------------------------------
# Expression grammar
# ----------------------------------------------------------------------


def _int_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(("id", "num", "id", "num", str(rng.randint(-5, 9))))
    pick = rng.random()
    if pick < 0.35:
        return f"{rng.choice(_INT_UDFS)}({_int_expr(rng, depth - 1)})"
    if pick < 0.55:
        op = rng.choice(("+", "-", "*"))
        return f"({_int_expr(rng, depth - 1)} {op} {_int_expr(rng, depth - 1)})"
    if pick < 0.7:
        return f"abs({_int_expr(rng, depth - 1)})"
    if pick < 0.85:
        return f"d_len({_txt_expr(rng, depth - 1)})"
    return f"length({_txt_expr(rng, depth - 1)})"


def _txt_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(("grp", "txt", "txt"))
    return f"{rng.choice(_TXT_UDFS)}({_txt_expr(rng, depth - 1)})"


def _predicate(rng: random.Random, depth: int) -> str:
    if depth > 0 and rng.random() < 0.3:
        joiner = rng.choice(("AND", "OR"))
        left = _predicate(rng, depth - 1)
        right = _predicate(rng, depth - 1)
        pred = f"({left} {joiner} {right})"
        return f"NOT {pred}" if rng.random() < 0.2 else pred
    pick = rng.random()
    if pick < 0.4:
        op = rng.choice(("<", "<=", ">", ">=", "=", "<>"))
        return f"{_int_expr(rng, 1)} {op} {rng.randint(-8, 10)}"
    if pick < 0.6:
        return f"grp {rng.choice(('=', '<>'))} '{rng.choice(_GROUPS)}'"
    if pick < 0.75:
        col = rng.choice(("grp", "num", "val", "txt"))
        return f"{col} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    op = rng.choice(("<", "<=", ">", ">="))
    return f"val {op} {rng.randint(-10, 20) * 0.25}"


def _scalar_item(rng: random.Random) -> str:
    pick = rng.random()
    if pick < 0.45:
        return _int_expr(rng, rng.randint(1, 3))
    if pick < 0.8:
        return _txt_expr(rng, rng.randint(1, 3))
    then = _int_expr(rng, 1)
    other = _int_expr(rng, 1)
    return f"CASE WHEN {_predicate(rng, 0)} THEN {then} ELSE {other} END"


# ----------------------------------------------------------------------
# Case construction
# ----------------------------------------------------------------------


def _alias(items: Sequence[str]) -> Tuple[str, ...]:
    """Alias every item: output values must agree, names need not (and
    duplicate unaliased expressions are ambiguous to the mini planner)."""
    return tuple(f"{item} AS c{index}" for index, item in enumerate(items))


def _scalar_query(rng: random.Random) -> QuerySpec:
    items = ["id"] + list(
        _alias(_scalar_item(rng) for _ in range(rng.randint(1, 3)))
    )
    where = _predicate(rng, 2) if rng.random() < 0.7 else None
    order_by: Tuple[str, ...] = ()
    limit = None
    if rng.random() < 0.4:
        order_by = ("id",)
        if rng.random() < 0.5:
            limit = rng.randint(1, 12)
    return QuerySpec(
        "scalar", tuple(items), where=where, order_by=order_by, limit=limit
    )


def _distinct_query(rng: random.Random) -> QuerySpec:
    if rng.random() < 0.4:
        items = _alias([rng.choice(_DICT_KEYS)] + (
            [_scalar_item(rng)] if rng.random() < 0.3 else []
        ))
    else:
        items = _alias(_scalar_item(rng) for _ in range(rng.randint(1, 2)))
    where = _predicate(rng, 1) if rng.random() < 0.5 else None
    return QuerySpec("scalar", items, where=where, distinct=True)


def _shared_call_aggs(rng: random.Random) -> List[str]:
    """Two or three builtin aggregates over one repeated UDF call: the
    shape whose call the fuser computes once under the Aggregate."""
    call = f"{rng.choice(_INT_UDFS)}({_int_expr(rng, 1)})"
    shapes = (
        f"sum(CASE WHEN {call} > {rng.randint(-5, 5)} THEN 1 ELSE 0 END)",
        f"max({call})",
        f"min({call})",
        f"sum({call})",
        f"count({call})",
    )
    return rng.sample(shapes, rng.randint(2, 3))


def _group_query(rng: random.Random) -> QuerySpec:
    aggs = []
    for _ in range(rng.randint(1, 3)):
        pick = rng.random()
        if pick < 0.3:
            aggs.append("count(*)")
        elif pick < 0.5:
            aggs.append(f"d_cnt({rng.choice(('txt', 'grp'))})")
        elif pick < 0.65:
            aggs.append(f"d_icnt({rng.choice(('num', 'id'))})")
        elif pick < 0.85:
            aggs.append(f"d_lensum({rng.choice(('txt', 'grp'))})")
        else:
            aggs.append(f"d_imax({rng.choice(('num', 'id'))})")
    where = _predicate(rng, 1) if rng.random() < 0.5 else None
    if rng.random() < 0.45:
        aggs = _shared_call_aggs(rng) + aggs
    if rng.random() < 0.3:
        key = rng.choice(_DICT_KEYS)
        return QuerySpec(
            "group", (f"{key} AS k",) + _alias(aggs), where=where,
            group_by=("k",),
        )
    return QuerySpec(
        "group", ("grp",) + _alias(aggs), where=where, group_by=("grp",)
    )


def _global_query(rng: random.Random) -> QuerySpec:
    # No WHERE: a UDF aggregate over zero rows is NULL on sqlite but the
    # aggregate's identity on the engines (generated tables are never
    # empty, so whole-table aggregation is always safe).
    aggs = ["count(*)"]
    for _ in range(rng.randint(1, 2)):
        aggs.append(
            rng.choice(("d_cnt(txt)", "d_lensum(grp)", "d_imax(num)",
                        "d_icnt(num)", "d_imax(id)"))
        )
    return QuerySpec("global", _alias(aggs))


def _table_query(rng: random.Random) -> QuerySpec:
    udf = rng.choice(("d_tokens", "d_words"))
    out_cols = ("tok",) if udf == "d_tokens" else ("word", "wlen")
    if rng.random() < 0.5:
        inner_where = "txt IS NOT NULL"
        if rng.random() < 0.5:
            inner_where += f" AND id <= {rng.randint(5, 30)}"
        from_clause = (
            f"{udf}((SELECT txt FROM {TABLE_NAME} WHERE {inner_where})) AS tf"
        )
        return QuerySpec("table_from", out_cols, from_clause=from_clause)
    items = ("id", f"{udf}(txt) AS {out_cols[0]}")
    where = _predicate(rng, 1) if rng.random() < 0.5 else None
    return QuerySpec("table_sel", items, where=where)


@dataclass(frozen=True)
class FixedQuery:
    """A hand-written statement; the minimizer does not shrink it."""

    text: str
    shape: str = "fixed"

    def sql(self) -> str:
        return self.text


def make_json_case(seed: int, sql: str) -> DiffCase:
    """One of :data:`JSON_QUERIES` over the JSON table of ``seed``."""
    return DiffCase(seed, make_json_table(seed), FixedQuery(sql))


def make_case(seed: int) -> DiffCase:
    """Build the deterministic differential case for one seed."""
    table = make_table(seed // CHUNK_SIZE)
    rng = random.Random(0xCA5E ^ (seed * 2654435761))
    pick = rng.random()
    if pick < 0.35:
        query = _scalar_query(rng)
    elif pick < 0.45:
        query = _distinct_query(rng)
    elif pick < 0.7:
        query = _group_query(rng)
    elif pick < 0.8:
        query = _global_query(rng)
    else:
        query = _table_query(rng)
    oracle_ok = query.shape not in ("table_from", "table_sel")
    return DiffCase(seed, table, query, oracle_ok)


# ----------------------------------------------------------------------
# Result normalization
# ----------------------------------------------------------------------


def normalize(table: Table) -> List[tuple]:
    """Engine results as a sorted multiset of comparable tuples.

    Booleans collapse to ints (sqlite has no BOOL) and floats are
    rounded to 9 places (generated floats live on a 0.25 grid, so this
    only guards against representation noise in derived values).
    """
    rows = []
    for row in table.to_rows():
        rows.append(
            tuple(
                int(v) if isinstance(v, bool)
                else round(v, 9) if isinstance(v, float)
                else v
                for v in row
            )
        )
    rows.sort(key=repr)
    return rows


# ----------------------------------------------------------------------
# Standalone repro snippets
# ----------------------------------------------------------------------


def repro_snippet(case: DiffCase, mismatch: str = "") -> str:
    """A self-contained script that reproduces one failing case."""
    schema = ", ".join(
        f"({name!r}, SqlType.{sql_type.name})"
        for name, sql_type in case.table.schema
    )
    rows = ",\n        ".join(repr(row) for row in list(case.table.rows()))
    lines = [
        "# Differential mismatch repro (seed %d)%s" % (
            case.seed, f": {mismatch}" if mismatch else ""
        ),
        "from repro.core import QFusor",
        "from repro.engines import (DuckDbLikeAdapter, MiniDbAdapter,",
        "    ParallelDbAdapter, RowStoreAdapter, SqliteAdapter,",
        "    TupleDbAdapter)",
        "from repro.storage import Table",
        "from repro.types import SqlType",
        "from tests.differential.generator import DIFF_UDFS, ORACLE_UDFS",
        "",
        f"SQL = {case.sql!r}",
        "",
        "table = Table.from_rows(",
        f"    {case.table.name!r},",
        f"    [{schema}],",
        "    [",
        f"        {rows},",
        "    ],",
        ")",
        "",
        "for make in (MiniDbAdapter, TupleDbAdapter, RowStoreAdapter,",
        "             DuckDbLikeAdapter, ParallelDbAdapter, SqliteAdapter):",
        "    adapter = make()",
        "    adapter.register_table(table)",
        "    udfs = ORACLE_UDFS if make is SqliteAdapter else DIFF_UDFS",
        "    for udf in udfs:",
        "        adapter.register_udf(udf)",
        "    print(make.__name__, 'unfused:',",
        "          sorted(adapter.execute_sql(SQL).to_rows(), key=repr))",
        "    if make is not SqliteAdapter:",
        "        print(make.__name__, 'fused:  ',",
        "              sorted(QFusor(adapter).execute(SQL).to_rows(), key=repr))",
    ]
    return "\n".join(lines)
