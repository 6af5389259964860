"""The acceptance invariant: for every udfbench query, with injected
per-row UDF exceptions and with a poisoned trace cache, the fused
execution returns the same row multiset as unfused execution on every
engine — no aborts, and the report records each recovery."""

import pytest

from repro.core import QFusor
from repro.engines import MiniDbAdapter, RowStoreAdapter, SqliteAdapter
from repro.testing import FaultInjector, inject, poison_traces
from repro.workloads import udfbench

ALL_SQL = dict(udfbench.QUERIES)
ALL_SQL["Q8"] = udfbench.q8_selectivity(2015)

# Q3/Q6/Q7 use table UDFs, which stdlib sqlite cannot register.
SQLITE_QUERIES = ["Q1", "Q2", "Q4", "Q5", "Q8", "Q9", "Q10"]

# One spec per UDF family appearing across Q1-Q10; ``scope="fused"``
# models faults originating in the fused trace, so both row-level
# reinterpretation and query-level deopt must hide them.
FAULTED_UDFS = (
    "cleandate", "lower", "normalize", "extractid",
    "jpack", "tokens", "avglen", "countvals",
)


def row_fault_injector():
    injector = FaultInjector()
    for name in FAULTED_UDFS:
        injector.udf_exception(name, times=2, scope="fused")
    return injector


def make_adapter(adapter_cls):
    adapter = adapter_cls()
    udfbench.setup(adapter, "tiny")
    return adapter


def rows(table):
    return sorted(map(repr, table.to_rows()))


@pytest.fixture(scope="module")
def references():
    cache = {}

    def get(adapter_cls, query_name):
        key = (adapter_cls, query_name)
        if key not in cache:
            adapter = make_adapter(adapter_cls)
            cache[key] = rows(adapter.execute_sql(ALL_SQL[query_name]))
        return cache[key]

    return get


ENGINE_QUERIES = (
    [(MiniDbAdapter, q) for q in sorted(ALL_SQL)]
    + [(RowStoreAdapter, q) for q in sorted(ALL_SQL)]
    + [(SqliteAdapter, q) for q in SQLITE_QUERIES]
)

IDS = [f"{cls.name}-{q}" for cls, q in ENGINE_QUERIES]


@pytest.mark.parametrize("adapter_cls,query_name", ENGINE_QUERIES, ids=IDS)
def test_row_faults_preserve_results(references, adapter_cls, query_name):
    qfusor = QFusor(make_adapter(adapter_cls))
    with inject(row_fault_injector()) as inj:
        result = qfusor.execute(ALL_SQL[query_name])
    assert rows(result) == references(adapter_cls, query_name)
    report = qfusor.last_report
    if inj.fired:
        # Every injected fault that fired was recovered, and the report
        # says how: a row-level event or a query-level deopt.
        assert report.row_events or report.deopt_events
        assert all(e.recovered for e in report.deopt_events)


@pytest.mark.parametrize("adapter_cls,query_name", ENGINE_QUERIES, ids=IDS)
def test_poisoned_traces_preserve_results(references, adapter_cls,
                                          query_name):
    qfusor = QFusor(make_adapter(adapter_cls))
    warm = qfusor.execute(ALL_SQL[query_name])
    assert rows(warm) == references(adapter_cls, query_name)

    poisoned = poison_traces(qfusor)
    result = qfusor.execute(ALL_SQL[query_name])
    assert rows(result) == references(adapter_cls, query_name)
    report = qfusor.last_report
    if poisoned and report.fused:
        assert report.deopted
        assert all(e.recovered for e in report.deopt_events)
        assert report.deopt_events[-1].invalidated
