"""Scalar UDFs evaluated by value on the columnar plane.

A deterministic scalar UDF (or a fused chain of them) over one TEXT/JSON
column with a dictionary runs once per distinct value and is gathered
by code; everything else runs once per row.  Either way the rows, the
errors and the row events are the classic path's.
"""

from __future__ import annotations

import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import obs
from repro.columnar import MorselScheduler, kernels
from repro.core import QFusor, QFusorConfig
from repro.engine import keys
from repro.engine.executor_vector import VectorExecutor
from repro.engine.expressions import FunctionResolver
from repro.engines import MiniDbAdapter
from repro.obs import METRICS
from repro.storage import Column, Table, serde
from repro.types import SqlType
from repro.udf import UdfRegistry, boundary, scalar_udf

settings.register_profile(
    "by_value_tier1", derandomize=True, max_examples=25, deadline=None
)
settings.register_profile("by_value_slow", max_examples=400, deadline=None)
_prof = settings.get_profile(
    "by_value_slow" if os.environ.get("RUN_SLOW") else "by_value_tier1"
)

#: Every UDF below raises on this value.
BOOM = "Boom"

#: Arguments each counting UDF was called with.
CALLS = {"bv_plain": [], "bv_pure": []}


@scalar_udf(deterministic=True)
def bv_fold(val: str) -> str:
    if val == BOOM:
        raise ValueError("fold refuses " + val)
    return val.lower()


@scalar_udf(deterministic=True)
def bv_mark(val: str) -> str:
    return "<" + val + ">"


@scalar_udf(deterministic=True)
def bv_len(val: str) -> int:
    return len(val)


@scalar_udf(deterministic=True)
def bv_show(val: list) -> str:
    return json.dumps(val, sort_keys=True)


@scalar_udf(deterministic=True)
def bv_wrap(val: list) -> list:
    return [val]


@scalar_udf
def bv_plain(val: str) -> str:
    CALLS["bv_plain"].append(val)
    return val


@scalar_udf(deterministic=True)
def bv_pure(val: str) -> str:
    CALLS["bv_pure"].append(val)
    return val


UDFS = (bv_fold, bv_mark, bv_len, bv_show, bv_wrap, bv_plain, bv_pure)

STATEMENTS = [
    "SELECT id, bv_fold(s) AS a FROM t",
    "SELECT id, bv_len(s) AS a FROM t",
    "SELECT id, bv_mark(bv_fold(s)) AS a FROM t",
    "SELECT bv_mark(bv_fold(s)) AS k, count(*) AS n FROM t GROUP BY k",
    "SELECT id, bv_show(j) AS a, bv_wrap(j) AS b FROM t",
    "SELECT bv_show(j) AS k, count(*) AS n FROM t GROUP BY k",
]


def make_qfusor(rows, columnar, policy="raise"):
    adapter = MiniDbAdapter(columnar=columnar)
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("s", SqlType.TEXT), ("j", SqlType.JSON)],
        rows,
    ))
    for udf in UDFS:
        adapter.register_udf(udf)
    return QFusor(
        adapter, QFusorConfig(row_error_policy=policy, cost_based=False)
    )


def outcome(qfusor, sql):
    """Sorted result rows and row events, or the escaping error's class,
    row and phase."""
    try:
        rows = sorted(map(repr, qfusor.execute(sql).to_rows()))
    except Exception as exc:
        return (type(exc).__name__, getattr(exc, "row", None),
                getattr(exc, "phase", None))
    events = [(e.row, e.action, e.error) for e in qfusor.last_report.row_events]
    return rows, events


_texts = st.sampled_from(["Alpha", "BETA", "gamma", "Delta", None])
_json_values = st.recursive(
    st.one_of(st.integers(-3, 3), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from("abc"), inner, max_size=2),
    ),
    max_leaves=5,
)


@settings(_prof)
@given(
    st.lists(_texts, min_size=1, max_size=40),
    st.lists(st.one_of(st.none(), _json_values), min_size=1, max_size=40),
)
def test_rows_match_the_classic_plane(texts, json_values):
    """Low-cardinality TEXT with NULLs takes the dictionary; JSON lists
    and dicts, mostly distinct, take the row path: either way the rows
    are those of the plane switched off."""
    n = max(len(texts), len(json_values))
    rows = [
        (i, texts[i % len(texts)],
         None if json_values[i % len(json_values)] is None
         else serde.serialize(json_values[i % len(json_values)]))
        for i in range(n)
    ]
    on, off = make_qfusor(rows, True), make_qfusor(rows, False)
    for sql in STATEMENTS:
        assert outcome(on, sql) == outcome(off, sql), sql


def test_dictionary_path_runs_fused_chains():
    rows = [(i, ["Alpha", "BETA", None][i % 3], None) for i in range(30)]
    qfusor = make_qfusor(rows, True)
    sql = "SELECT id, bv_mark(bv_fold(s)) AS a FROM t"
    before = boundary.counters.c_to_python
    qfusor.execute(sql)
    (fused,) = qfusor.last_report.fused  # the chain ran as one trace...
    assert "scalar" in fused.definition.entries
    assert kernels.eligible(fused.definition)
    # ...on the kernel: one crossing for the column, not one per row.
    assert boundary.counters.c_to_python - before == 1
    registered = qfusor.adapter.registry.get(fused.definition.name)
    column = Column("s", SqlType.TEXT, [r[1] for r in rows])
    out = registered.call_scalar([column], len(column))
    assert out.to_list() == [["<alpha>", "<beta>", None][i % 3]
                             for i in range(30)]
    assert out.dictionary(compute=False)[1].tolist() == [
        "<alpha>", "<beta>", None
    ]


@pytest.mark.parametrize("policy", ["raise", "null", "skip", "reinterpret"])
@pytest.mark.parametrize("sql", [
    "SELECT id, bv_fold(s) AS a FROM t",
    "SELECT id, bv_mark(bv_fold(s)) AS a FROM t",
])
def test_raising_distinct_value_fails_like_the_row_path(policy, sql):
    rows = [(i, ["Alpha", BOOM, "beta", None][i % 4], None) for i in range(24)]
    on = outcome(make_qfusor(rows, True, policy), sql)
    off = outcome(make_qfusor(rows, False, policy), sql)
    assert on == off
    if policy == "raise":
        assert on[1] == 1  # the first row holding the value


def test_unannotated_udf_runs_once_per_row():
    rows = [(i, ["Alpha", "BETA", None][i % 3], None) for i in range(30)]
    adapter = make_qfusor(rows, True).adapter
    for name in CALLS:
        CALLS[name].clear()
        adapter.execute_sql(f"SELECT {name}(s) FROM t")
    assert len(CALLS["bv_plain"]) == 20  # every non-NULL row
    assert CALLS["bv_pure"] == ["Alpha", "BETA"]  # every distinct value


def test_dictionary_result_feeds_factorize_without_a_dict_pass(monkeypatch):
    registry = UdfRegistry()
    registry.columnar = MiniDbAdapter(columnar=True).registry.columnar
    registry.register(bv_fold)
    column = Column("s", SqlType.TEXT, ["A", "b", "A", None, "B", "b"] * 5)
    out = registry.get("bv_fold").call_scalar([column], len(column))
    assert out.to_list() == ["a", "b", "a", None, "b", "b"] * 5
    codes, values = out.dictionary(compute=False)
    assert values.tolist() == ["a", "b", None]

    def no_pass(*args, **kwargs):
        raise AssertionError("factorize made a dict pass")

    monkeypatch.setattr(keys, "_encode_chunk", no_pass)
    group_ids, first_rows = keys.factorize([out])
    assert group_ids.tolist() == codes.tolist()
    assert first_rows.tolist() == [0, 1, 3]


@pytest.mark.parametrize("threads, shards", [(1, False), (2, True)])
def test_one_thread_never_shards(threads, shards):
    registry = UdfRegistry()
    registry.register(bv_fold)
    executor = VectorExecutor(
        None, FunctionResolver(registry),
        MorselScheduler(threads=threads, morsel_size=8),
    )
    assert executor._shards(100, ["bv_fold"], True) is shards


def test_fused_batch_histogram_recorded_on_the_kernel():
    rows = [(i, ["Alpha", "BETA"][i % 2], None) for i in range(10)]
    qfusor = make_qfusor(rows, True)
    sql = "SELECT id, bv_mark(bv_fold(s)) AS a FROM t"
    qfusor.execute(sql)  # prepare the trace
    (fused,) = qfusor.last_report.fused
    name = fused.definition.name
    histogram = METRICS.histogram(
        "repro_fused_batch_rows", obs.DEFAULT_SIZE_BUCKETS, udf=name
    )
    before = histogram.snapshot()["count"]
    with obs.enabled_scope(tracing=False, metrics=True):
        qfusor.execute(sql)
    assert histogram.snapshot()["count"] == before + 1
    assert histogram.snapshot()["sum"] >= 10


def test_json_without_dictionary_takes_the_row_path():
    values = [serde.serialize([i]) for i in range(10)]
    column = Column("j", SqlType.JSON, values)
    assert column.dictionary() is None  # every value distinct
    out = kernels.scalar_batch(
        bv_show.__udf__, [column], len(column), by_value=True
    )
    assert out.to_list() == [json.dumps([i]) for i in range(10)]
    assert out.dictionary(compute=False) is None
