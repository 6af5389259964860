"""Row budgets and cancellation over the key-code operators.

GROUP BY, DISTINCT and the equi-join run on ``factorize`` instead of a
``guarded_iter`` loop.  They must still charge exactly the rows the
loops charged, trip a row budget at the same count in the same
operator, and notice a cancellation part-way through their input.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest

from repro.engine import Database, keys
from repro.engine.executor_vector import VectorExecutor
from repro.errors import QueryBudgetExceededError, QueryCancelledError
from repro.resilience import governor
from repro.storage import Column, Table
from repro.types import SqlType
from tests.engine.test_keys import LoopExecutor

STATEMENTS = [
    "SELECT s, count(*) AS n FROM t GROUP BY s",
    "SELECT i, s, count(*) AS n FROM t GROUP BY i, s",
    "SELECT upper(s) AS k, count(*) AS n FROM t GROUP BY k",
    "SELECT DISTINCT s, i FROM t",
    "SELECT t.id, u.id FROM t JOIN u ON t.i = u.i",
    "SELECT t.id, u.id FROM t LEFT JOIN u ON t.s = u.s AND t.i = u.i",
    "SELECT s FROM t UNION SELECT s FROM u",
]


def _table(name: str, rows: int) -> Table:
    ids = np.arange(rows)
    words = np.array(
        [None if n % 17 == 0 else f"w{n % 23}" for n in range(rows)],
        dtype=object,
    )
    return Table(name, [
        Column.from_numpy("id", SqlType.INT, ids),
        Column.from_numpy("i", SqlType.INT, ids % 41),
        Column.from_numpy("s", SqlType.TEXT, words),
    ])


@pytest.fixture(scope="module")
def db():
    database = Database()
    # 3000 is not a multiple of the checkpoint stride: the trailing
    # partial stride is charged too.
    database.register_table(_table("t", 3000))
    database.register_table(_table("u", 60))
    return database


def _operator(tb) -> str:
    """The innermost executor method on a traceback."""
    name = None
    while tb is not None:
        if isinstance(tb.tb_frame.f_locals.get("self"), VectorExecutor):
            name = tb.tb_frame.f_code.co_name
        tb = tb.tb_next
    return name


def _run(db, executor_cls, sql, budget):
    ctx = governor.QueryContext(row_budget=budget)
    executor = executor_cls(db.catalog, db.resolver)
    try:
        with governor.activate(ctx):
            executor.execute(db.plan(sql))
    except QueryBudgetExceededError as exc:
        return ("tripped", exc.rows, _operator(sys.exc_info()[2]))
    return ("done", ctx.rows_charged, None)


@pytest.mark.parametrize("sql", STATEMENTS)
def test_charges_and_trips_like_the_loops(db, sql):
    total = _run(db, LoopExecutor, sql, 10 ** 9)
    assert _run(db, VectorExecutor, sql, 10 ** 9) == total
    charged = total[1]
    for budget in range(0, charged + 1, max(charged // 60, 1)):
        expected = _run(db, LoopExecutor, sql, budget)
        assert _run(db, VectorExecutor, sql, budget) == expected, budget


def test_cancellation_mid_group_by_surfaces():
    db = Database()
    db.register_table(_table("t", 200_000))
    ctx = governor.QueryContext()
    encoded = []
    real = keys._encode_chunk

    def encode(values, codes, index, start, stop):
        encoded.append(start)
        if start >= 100_000:  # lands half-way through the key column
            ctx.cancel("stop")
        real(values, codes, index, start, stop)

    with mock.patch.object(keys, "_encode_chunk", encode):
        with pytest.raises(QueryCancelledError) as info:
            with governor.activate(ctx):
                VectorExecutor(db.catalog, db.resolver).execute(
                    db.plan("SELECT s, count(*) AS n FROM t GROUP BY s")
                )
    assert _operator(info.tb) == "_aggregate"
    assert max(encoded) < 200_000 - keys.CHUNK  # stopped before the end
