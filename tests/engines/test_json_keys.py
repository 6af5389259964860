"""JSON lists and dicts as keys of the hashing operators.

GROUP BY, DISTINCT, the equi-join and the set operations key a JSON
value by a frozen form that compares like Python ``==``; a group keeps
its first-seen value.  Both executors, the same answers.
"""

import pytest

from repro.engines import MiniDbAdapter, TupleDbAdapter
from repro.storage import Table
from repro.types import SqlType

ROWS = [
    (0, [1, 2]), (1, {"a": 1, "b": [2]}), (2, [1, 2]), (3, None),
    (4, {"b": [2], "a": 1}), (5, [1.0, 2]), (6, "x"), (7, ["x"]),
]

CASES = {
    "SELECT DISTINCT j FROM t": [
        ([1, 2],), ({"a": 1, "b": [2]},), (None,), ("x",), (["x"],),
    ],
    "SELECT j, count(*) AS n FROM t GROUP BY j": [
        ([1, 2], 3), ({"a": 1, "b": [2]}, 2), (None, 1), ("x", 1),
        (["x"], 1),
    ],
    "SELECT count(DISTINCT j) AS n FROM t": [(4,)],
    "SELECT t.id, u.id FROM t JOIN t AS u ON t.j = u.j "
    "WHERE t.id < u.id ORDER BY t.id, u.id": [
        (0, 2), (0, 5), (1, 4), (2, 5),
    ],
    "SELECT j FROM t WHERE id < 3 UNION SELECT j FROM t WHERE id > 3": [
        ([1, 2],), ({"a": 1, "b": [2]},), ("x",), (["x"],),
    ],
    "SELECT j FROM t WHERE id < 3 INTERSECT SELECT j FROM t WHERE id > 3": [
        ([1, 2],), ({"a": 1, "b": [2]},),
    ],
    "SELECT j FROM t WHERE id > 3 EXCEPT SELECT j FROM t WHERE id < 3": [
        ("x",), (["x"],),
    ],
}


@pytest.mark.parametrize("adapter_class", [MiniDbAdapter, TupleDbAdapter])
@pytest.mark.parametrize("sql", list(CASES))
def test_json_keys(adapter_class, sql):
    adapter = adapter_class()
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("j", SqlType.JSON)], ROWS
    ))
    rows = adapter.execute_sql(sql).to_rows()
    assert sorted(map(repr, rows)) == sorted(map(repr, CASES[sql]))
    # A group keeps its first-seen value: [1, 2], never [1.0, 2].
    assert "1.0" not in repr(rows)
