"""JSON lists and dicts as keys of the hashing operators.

A JSON value is stored as its serialized text, so GROUP BY, DISTINCT,
the equi-join and the set operations compare JSON keys as that text:
``[1,2]`` and ``[1.0,2]`` differ, and so do two dicts whose keys are in
a different order.  Both executors and sqlite, the same answers.
"""

import pytest

from repro.engines import MiniDbAdapter, SqliteAdapter, TupleDbAdapter
from repro.storage import Table
from repro.types import SqlType

ROWS = [
    (0, [1, 2]), (1, {"a": 1, "b": [2]}), (2, [1, 2]), (3, None),
    (4, {"b": [2], "a": 1}), (5, [1.0, 2]), (6, "x"), (7, ["x"]),
]

#: The stored text of ROWS' JSON values.
L12, L1F2 = "[1,2]", "[1.0,2]"
AB, BA = '{"a":1,"b":[2]}', '{"b":[2],"a":1}'
LX = '["x"]'

CASES = {
    "SELECT DISTINCT j FROM t": [
        (L12,), (AB,), (None,), (BA,), (L1F2,), ("x",), (LX,),
    ],
    "SELECT j, count(*) AS n FROM t GROUP BY j": [
        (L12, 2), (AB, 1), (None, 1), (BA, 1), (L1F2, 1), ("x", 1), (LX, 1),
    ],
    "SELECT count(DISTINCT j) AS n FROM t": [(6,)],
    "SELECT t.id, u.id FROM t JOIN t AS u ON t.j = u.j "
    "WHERE t.id < u.id ORDER BY t.id, u.id": [(0, 2)],
    "SELECT j FROM t WHERE id < 3 UNION SELECT j FROM t WHERE id > 3": [
        (L12,), (AB,), (BA,), (L1F2,), ("x",), (LX,),
    ],
    "SELECT j FROM t WHERE id < 3 INTERSECT SELECT j FROM t WHERE id > 3": [],
    "SELECT j FROM t WHERE id > 3 EXCEPT SELECT j FROM t WHERE id < 3": [
        (BA,), (L1F2,), ("x",), (LX,),
    ],
}


@pytest.mark.parametrize(
    "adapter_class", [MiniDbAdapter, TupleDbAdapter, SqliteAdapter]
)
@pytest.mark.parametrize("sql", list(CASES))
def test_json_keys(adapter_class, sql):
    adapter = adapter_class()
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("j", SqlType.JSON)], ROWS
    ))
    rows = adapter.execute_sql(sql).to_rows()
    assert sorted(map(repr, rows)) == sorted(map(repr, CASES[sql]))
