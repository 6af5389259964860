"""A JSON column holds serialized text, whatever it was loaded from.

``Table.from_rows`` serializes raw lists, dicts, tuples and scalars, so
builtins, UDFs and the sqlite integration all see the same text: the
four adapters give the same rows.
"""

import pytest

from repro.engines import MiniDbAdapter, SqliteAdapter, TupleDbAdapter
from repro.storage import Column, Table
from repro.types import SqlType
from repro.udf import scalar_udf

ADAPTERS = {
    "minidb-columnar": lambda: MiniDbAdapter(columnar=True),
    "minidb": MiniDbAdapter,
    "tupledb": TupleDbAdapter,
    "sqlite": SqliteAdapter,
}

SCALARS = [1, 1.0, True] * 4
COMPLEX = [[1, 2], {"a": 1, "b": [2]}, [], {"k": "v"}, (3, 4), None] * 3


@scalar_udf
def jlen(j: list) -> int:
    return len(j)


def _run(make, values, sql):
    adapter = make()
    adapter.register_udf(jlen)
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("j", SqlType.JSON)], enumerate(values)
    ))
    return adapter.execute_sql(sql).to_rows()


def _agree(values, sql):
    """The rows every adapter returns for ``sql``; they must be equal."""
    results = {
        name: sorted(_run(make, values, sql), key=repr)
        for name, make in ADAPTERS.items()
    }
    first = results["sqlite"]
    assert all(rows == first for rows in results.values()), results
    return first


def test_concat_sees_the_text_of_each_scalar():
    rows = _agree(SCALARS, "SELECT id, j || 'x' AS c FROM t")
    assert [c for _, c in sorted(rows)] == ["1x", "1.0x", "truex"] * 4


def test_udf_over_raw_lists_and_dicts():
    rows = _agree(COMPLEX, "SELECT id, jlen(j) AS n FROM t")
    assert [n for _, n in sorted(rows)] == [2, 2, 0, 1, 2, None] * 3


def test_length_counts_the_text():
    rows = _agree(COMPLEX, "SELECT id, length(j) AS n FROM t")
    texts = ['[1,2]', '{"a":1,"b":[2]}', '[]', '{"k":"v"}', '[3,4]']
    expected = [len(text) for text in texts] + [None]
    assert [n for _, n in sorted(rows)] == expected * 3


@pytest.mark.parametrize("build", ["from_rows", "from_dict", "column"])
def test_validated_constructors_store_only_text(build):
    values = [1, 1.0, True, [1], {"a": (1, 2)}, (1,), "[1]", None]
    if build == "from_rows":
        column = Table.from_rows(
            "t", [("j", SqlType.JSON)], [(v,) for v in values]
        ).columns[0]
    elif build == "from_dict":
        column = Table.from_dict("t", {"j": (SqlType.JSON, values)}).columns[0]
    else:
        column = Column("j", SqlType.JSON, values)
    assert column.to_list() == [
        "1", "1.0", "true", "[1]", '{"a":[1,2]}', "[1]", "[1]", None,
    ]


@pytest.mark.parametrize(
    "text", ['["a"]', '{"a":1}', '"quoted"', "null", "12.5", "plain words", ""]
)
def test_text_is_stored_as_given(text):
    # A str is taken as serialized text: it is neither parsed nor
    # re-serialized, whether or not it looks like JSON.
    assert Column("j", SqlType.JSON, [text]).to_list() == [text]
