"""Table UDFs on the column kernel: the columnar adapter must give the
results and the typed errors (class, row, phase) of the per-value
wrapper path, and cross the boundary once per column."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.errors import UdfExecutionError
from repro.jit import DistinctStage, PipelineSpec, TableUdfStage, generate_fused_udf
from repro.resilience import runtime
from repro.storage import Column, Table
from repro.types import SqlType
from repro.udf import UdfRegistry, boundary, scalar_udf, table_udf
from repro.workloads import udfbench

POLICIES = ("raise", "null", "skip", "reinterpret")

#: The value every wrong-type UDF yields, by test parameter.
WRONG = {
    "true": True, "one": 1, "one_half": 1.5, "text": "3",
    "np_int": np.int64(3), "np_float": np.float64(2.5), "list": [1],
    "dict": {}, "nan": math.nan,
}
_yield = {"value": None}


@table_udf(output=("tok",), types=(str,))
def kt_split(inp):
    for (text,) in inp:
        if text is None:
            yield (None,)
            continue
        if text == "Boom":
            raise ValueError("split refuses " + text)
        for word in text.split():
            yield (word,)


@scalar_udf
def kt_lower(s: str) -> str:
    return s.lower()


@table_udf(output=("tok",), types=(str,))
def kt_repeat(inp, times: int):
    for (text,) in inp:
        for _ in range(times):
            yield (text,)


@table_udf(output=("a", "b"), types=(str, int))
def kt_short(inp):
    for (text,) in inp:
        yield (text,) if text == "short" else (text, len(text or ""))


@table_udf(output=("a",), types=(str,))
def kt_long(inp):
    for (text,) in inp:
        yield (text, "extra", 3)


def _wrong_udf(sql_type):
    @table_udf(output=("x",), types=(sql_type,))
    def kt_wrong(inp):
        for (text,) in inp:
            yield (_yield["value"] if text == "b" else None,)

    return kt_wrong


def _adapter(columnar, udfs):
    adapter = MiniDbAdapter(columnar=columnar)
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("s", SqlType.TEXT)],
        [(0, "a b"), (1, None), (2, "Boom"), (3, "short"), (4, "c")],
    ), replace=True)
    adapter.register_table(Table.from_rows(
        "u", [("id", SqlType.INT), ("s", SqlType.TEXT)],
        [(0, "a"), (1, "b"), (2, None)],
    ), replace=True)
    for udf in udfs:
        adapter.register_udf(udf, replace=True)
    return adapter


def outcome(run):
    """Rows, or the escaping error's class, row, phase and cause class."""
    try:
        return sorted(run().to_rows(), key=repr)
    except UdfExecutionError as exc:
        return ("UdfExecutionError", exc.row, exc.phase,
                type(exc.original).__name__)
    except Exception as exc:  # the classes must agree too
        return (type(exc).__name__,)


def both(sql, udfs, policy="raise"):
    results = []
    for columnar in (True, False):
        adapter = _adapter(columnar, udfs)
        with runtime.activate(runtime.ResilienceContext(row_error_policy=policy)):
            results.append(outcome(lambda: adapter.execute_sql(sql)))
    return results


UDFS = [kt_split, kt_lower, kt_repeat, kt_short, kt_long]

STATEMENTS = {
    "expand_null": "SELECT id, kt_split(s) FROM t WHERE id <> 2",
    "expand_raising": "SELECT id, kt_split(s) FROM t",
    "expand_const": "SELECT id, kt_repeat(s, 2) FROM t",
    "expand_short": "SELECT id, kt_short(s) FROM t",
    "expand_long": "SELECT id, kt_long(s) FROM t",
    "relation_null": "SELECT tok FROM kt_split((SELECT s FROM t WHERE id <> 2))",
    "relation_raising": "SELECT tok FROM kt_split((SELECT s FROM t))",
    "relation_const": "SELECT tok FROM kt_repeat((SELECT s FROM t), 3)",
    "relation_short": "SELECT a, b FROM kt_short((SELECT s FROM t))",
    "relation_long": "SELECT a FROM kt_long((SELECT s FROM t))",
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_user_table_udfs_match_the_wrapper(name, policy):
    kernel, classic = both(STATEMENTS[name], UDFS, policy)
    assert kernel == classic


@pytest.mark.parametrize("sql_type", [SqlType.INT, SqlType.FLOAT, SqlType.TEXT,
                                      SqlType.BOOL, SqlType.JSON])
@pytest.mark.parametrize("value", sorted(WRONG))
def test_wrong_type_matrix(sql_type, value):
    _yield["value"] = WRONG[value]
    udf = _wrong_udf(sql_type)
    for sql in ("SELECT id, kt_wrong(s) FROM u",
                "SELECT x FROM kt_wrong((SELECT s FROM u))"):
        kernel, classic = both(sql, [udf])
        assert repr(kernel) == repr(classic), sql


@pytest.mark.parametrize("distinct", [False, True])
def test_fused_expand_traces_match(distinct):
    sql = (
        "SELECT DISTINCT tok FROM (SELECT kt_split(kt_lower(s)) AS tok FROM t "
        "WHERE id <> 2) AS x" if distinct
        else "SELECT id, kt_split(kt_lower(s)) AS tok FROM t WHERE id <> 2"
    )
    results = []
    for columnar in (True, False):
        qfusor = QFusor(_adapter(columnar, UDFS), QFusorConfig(cost_based=False))
        results.append(outcome(lambda: qfusor.execute(sql)))
    assert results[0] == results[1]
    assert isinstance(results[0], list) and results[0]


def _trace(distinct):
    stages = [TableUdfStage(kt_split.__udf__, ("v",), (), ("w",))]
    if distinct:
        stages.append(DistinctStage(("w",)))
    spec = PipelineSpec("kt_trace_d" if distinct else "kt_trace",
                        (("v", SqlType.TEXT),), tuple(stages), ("w",),
                        (SqlType.TEXT,))
    return generate_fused_udf(spec).definition


@pytest.mark.parametrize("distinct", [False, True])
def test_trace_lineage_and_distinct_span_the_batch(distinct):
    col = Column("v", SqlType.TEXT, ["a b", "b c", None, "c a d"])
    results = []
    for columnar in (True, False):
        registry = UdfRegistry()
        registered = registry.register(_trace(distinct))
        if columnar:
            from repro.columnar import ColumnarPolicy
            registry.columnar = ColumnarPolicy()
        lineage, cols = registered.call_table_expand([col], 4)
        results.append((list(lineage), cols[0].to_list()))
    assert results[0] == results[1]
    if distinct:
        assert results[0] == ([0, 0, 1, 2, 3], ["a", "b", "c", None, "d"])


@pytest.mark.parametrize("udf", ["user", "trace"])
def test_lineage_skips_rows_that_yield_nothing(udf):
    col = Column("v", SqlType.TEXT, ["", "a b", "", "c", ""])
    results = []
    for columnar in (True, False):
        registry = UdfRegistry()
        registered = registry.register(
            kt_split if udf == "user" else _trace(False)
        )
        if columnar:
            from repro.columnar import ColumnarPolicy
            registry.columnar = ColumnarPolicy()
        lineage, cols = registered.call_table_expand([col], 5)
        results.append((lineage, cols[0].to_list()))
    assert results[0] == results[1] == ([1, 1, 3], ["a", "b", "c"])


def test_trace_yields_a_rows_outputs_before_pulling_the_next():
    pulled = []

    def rows():
        for i, row in enumerate([("a b",), ("c",), ("d e f",)]):
            pulled.append(i)
            yield row

    seen = [(len(pulled) - 1, out) for out in _trace(False).func(rows())]
    assert seen == [(0, ("a",)), (0, ("b",)), (1, ("c",)),
                    (2, ("d",)), (2, ("e",)), (2, ("f",))]


def test_q6_crosses_once_per_column_on_the_columnar_adapter():
    crossings = {}
    for columnar in (True, False):
        adapter = MiniDbAdapter(columnar=columnar)
        for table in udfbench.build_tables(200, 1):
            adapter.register_table(table, replace=True)
        for udf in udfbench.udfs.ALL_UDFS:
            adapter.register_udf(udf, replace=True)
        boundary.counters.reset()
        rows = adapter.execute_sql(udfbench.QUERIES["Q6"]).num_rows
        crossings[columnar] = (rows, boundary.counters.snapshot())
    (rows, kernel), (classic_rows, classic) = crossings[True], crossings[False]
    assert rows == classic_rows > 200
    # Two UDFs (lower, tokens): one crossing per column each.
    assert kernel["engine_to_c"] == kernel["c_to_python"] == 2
    assert kernel["python_to_c"] == kernel["c_to_engine"] == 2
    assert classic["engine_to_c"] >= 200
    assert classic["python_to_c"] >= rows


# ----------------------------------------------------------------------
# The wrapper's expand-row rollback
# ----------------------------------------------------------------------


@table_udf(output=("w",), types=(str,))
def kt_badword(inp):
    for (text,) in inp:
        for w in text.split():
            yield (len(w) if w == "bb" else w,)


@table_udf(output=("w", "n"), types=(str, str))
def kt_badsecond(inp):
    for (text,) in inp:
        for w in text.split():
            yield (w, 2 if w == "bb" else w.upper())


@table_udf(output=("w",), types=(str,))
def kt_onebad(inp):
    for (text,) in inp:
        yield (7 if text == "bb" else text,)


def _expand(udf, values, policy):
    registry = UdfRegistry()
    registry.register(udf)
    col = Column("v", SqlType.TEXT, values)
    with runtime.activate(runtime.ResilienceContext(row_error_policy=policy)):
        lineage, cols = registry.get(udf.__udf__.name).call_table_expand(
            [col], len(values)
        )
    return list(lineage), [c.to_list() for c in cols]


def test_rollback_keeps_earlier_rows_outputs():
    values = ["a c", "bb d", "x y"]
    assert _expand(kt_badword, values, "null") == (
        [0, 0, 1, 2, 2], [["a", "c", None, "x", "y"]]
    )
    assert _expand(kt_badword, values, "skip") == (
        [0, 0, 2, 2], [["a", "c", "x", "y"]]
    )


def test_rollback_of_a_failed_second_field():
    values = ["a c", "bb d", "x y"]
    assert _expand(kt_badsecond, values, "null") == (
        [0, 0, 1, 2, 2],
        [["a", "c", None, "x", "y"], ["A", "C", None, "X", "Y"]],
    )
    assert _expand(kt_badsecond, values, "skip") == (
        [0, 0, 2, 2], [["a", "c", "x", "y"], ["A", "C", "X", "Y"]]
    )


def test_one_row_per_input_wrong_type_is_a_udf_error():
    with pytest.raises(UdfExecutionError) as info:
        _expand(kt_onebad, ["a", "bb", "c"], "raise")
    assert info.value.row == 1
    assert _expand(kt_onebad, ["a", "bb", "c"], "skip") == (
        [0, 2], [["a", "c"]]
    )


# ----------------------------------------------------------------------
# The scalar kernel's JSON results
# ----------------------------------------------------------------------


@scalar_udf
def kt_js(s: str) -> dict:
    return {"v": np.int64(1)} if s == "b" else {"v": s}


def test_unserializable_scalar_json_reports_the_udf_error():
    results = []
    for columnar in (True, False):
        adapter = _adapter(columnar, [kt_js])
        results.append(outcome(
            lambda: adapter.execute_sql("SELECT id, kt_js(s) FROM u")
        ))
    assert results[0] == results[1]
    assert results[0][:2] == ("UdfExecutionError", 1)
