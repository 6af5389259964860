"""Row-level exception capture inside fused batch wrappers: the
``row_error_policy`` knob controls what happens to a failing row."""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.errors import UdfExecutionError
from repro.storage import Table
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf import scalar_udf, table_udf


@scalar_udf
def p_fold(val: str) -> str:
    return val.lower()


@scalar_udf
def p_mark(val: str) -> str:
    return "<" + val + ">"


@table_udf(output=("w",), types=(str,))
def p_words(inp_datagen):
    for (value,) in inp_datagen:
        for word in value.split():
            yield (word,)


VALUES = ["One Two", "Three Four", "Five"]
SCALAR_SQL = "SELECT id, p_mark(p_fold(v)) AS o FROM t"
EXPAND_SQL = "SELECT id, p_words(p_fold(v)) AS w FROM t"


def make_qfusor(policy="reinterpret", **overrides):
    adapter = MiniDbAdapter()
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("v", SqlType.TEXT)],
        [(i, v) for i, v in enumerate(VALUES)],
    ))
    for udf in (p_fold, p_mark, p_words):
        adapter.register_udf(udf)
    config = QFusorConfig(row_error_policy=policy, cost_based=False, **overrides)
    return QFusor(adapter, config)


def fold_fault(**kwargs):
    kwargs.setdefault("row", 1)
    kwargs.setdefault("scope", "fused")
    return FaultInjector().udf_exception("p_fold", **kwargs)


def rows(table):
    return sorted(table.to_rows())


@pytest.fixture(scope="module")
def scalar_reference():
    return rows(QFusor(
        make_qfusor().adapter, QFusorConfig.disabled()
    ).execute(SCALAR_SQL))


@pytest.fixture(scope="module")
def expand_reference():
    return rows(QFusor(
        make_qfusor().adapter, QFusorConfig.disabled()
    ).execute(EXPAND_SQL))


class TestScalarPolicies:
    def test_reinterpret_recovers_the_row(self, scalar_reference):
        qfusor = make_qfusor("reinterpret")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(SCALAR_SQL)
        assert inj.fired == 1, "fault must fire inside the fused trace"
        assert rows(result) == scalar_reference
        report = qfusor.last_report
        assert not report.deopted
        assert report.recovered_rows == 1
        event = report.row_events[0]
        assert event.action == "reinterpreted" and event.row == 1

    def test_null_substitutes_sql_null(self):
        qfusor = make_qfusor("null")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(SCALAR_SQL)
        assert inj.fired == 1
        assert rows(result) == [
            (0, "<one two>"), (1, None), (2, "<five>"),
        ]
        assert qfusor.last_report.row_events[0].action == "nulled"

    def test_skip_aligns_like_null_for_scalar_outputs(self):
        qfusor = make_qfusor("skip")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(SCALAR_SQL)
        assert inj.fired == 1
        assert (1, None) in result.to_rows()

    def test_raise_with_deopt_recovers_at_query_level(self,
                                                      scalar_reference):
        qfusor = make_qfusor("raise")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(SCALAR_SQL)
        assert inj.fired == 1
        assert rows(result) == scalar_reference
        report = qfusor.last_report
        assert report.deopted and report.deopt_events[0].recovered

    def test_raise_without_deopt_names_udf_and_row(self):
        qfusor = make_qfusor("raise", deopt=False)
        with inject(fold_fault()), pytest.raises(UdfExecutionError) as err:
            qfusor.execute(SCALAR_SQL)
        assert err.value.row == 1
        assert err.value.udf_name
        assert "row 1" in str(err.value)


class TestExpandPolicies:
    def test_reinterpret_recovers_all_output_rows(self, expand_reference):
        qfusor = make_qfusor("reinterpret")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(EXPAND_SQL)
        assert inj.fired == 1
        assert rows(result) == expand_reference
        assert qfusor.last_report.recovered_rows == 1

    def test_skip_drops_the_rows_of_the_failed_input(self):
        qfusor = make_qfusor("skip")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(EXPAND_SQL)
        assert inj.fired == 1
        got = rows(result)
        assert all(ident != 1 for ident, _ in got)
        assert (0, "one") in got and (2, "five") in got
        assert qfusor.last_report.row_events[0].action == "skipped"

    def test_null_emits_one_all_null_row(self):
        qfusor = make_qfusor("null")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(EXPAND_SQL)
        assert inj.fired == 1
        got = rows(result)
        assert (1, None) in got
        assert sum(1 for ident, _ in got if ident == 1) == 1

    def test_raise_with_deopt_recovers(self, expand_reference):
        qfusor = make_qfusor("raise")
        with inject(fold_fault()) as inj:
            result = qfusor.execute(EXPAND_SQL)
        assert inj.fired == 1
        assert rows(result) == expand_reference
        assert qfusor.last_report.deopted


class TestPolicyScope:
    def test_policy_inactive_outside_guarded_execution(self):
        """Plain adapter execution keeps historical raise semantics even
        with an armed injector — no context, no row recovery."""
        qfusor = make_qfusor("reinterpret")
        fault = FaultInjector().udf_exception("p_fold", scope="any")
        with inject(fault):
            with pytest.raises(UdfExecutionError):
                qfusor.adapter.execute_sql(SCALAR_SQL)

    def test_unfused_execution_not_affected_by_fused_scope(self):
        qfusor = QFusor(make_qfusor().adapter, QFusorConfig.disabled())
        with inject(fold_fault()) as inj:
            qfusor.execute(SCALAR_SQL)
        assert inj.fired == 0
