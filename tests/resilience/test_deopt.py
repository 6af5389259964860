"""Runtime de-optimization: a poisoned fused trace must never abort the
query — QFusor invalidates the cache entry, blocklists the section, and
transparently re-executes through the unfused path."""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter, RowStoreAdapter, SqliteAdapter
from repro.errors import UdfExecutionError
from repro.storage import Table
from repro.testing import poison_traces
from repro.types import SqlType
from repro.udf import scalar_udf


@scalar_udf
def r_fold(val: str) -> str:
    return val.lower()


@scalar_udf
def r_mark(val: str) -> str:
    return "<" + val + ">"


VALUES = ["Alpha", "Beta", None, "Gamma", "DELTA"]
SQL = "SELECT r_mark(r_fold(v)) AS o FROM t"


def make_qfusor(adapter_cls, config=None):
    adapter = adapter_cls()
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("v", SqlType.TEXT)],
        [(i, v) for i, v in enumerate(VALUES)],
    ))
    adapter.register_udf(r_fold)
    adapter.register_udf(r_mark)
    return QFusor(adapter, (config or QFusorConfig()).ablated(cost_based=False))


def rows(table):
    return sorted(map(repr, table.to_rows()))


@pytest.fixture(scope="module")
def reference():
    qfusor = make_qfusor(MiniDbAdapter, QFusorConfig.disabled())
    return rows(qfusor.execute(SQL))


@pytest.mark.parametrize(
    "adapter_cls", [MiniDbAdapter, RowStoreAdapter, SqliteAdapter]
)
class TestPoisonedTraceRecovery:
    def test_deopt_recovers_and_records(self, reference, adapter_cls):
        qfusor = make_qfusor(adapter_cls)
        warm = qfusor.execute(SQL)
        assert rows(warm) == reference
        assert qfusor.last_report.fused, "query must fuse to test deopt"

        poisoned = poison_traces(qfusor)
        assert poisoned

        result = qfusor.execute(SQL)
        report = qfusor.last_report
        assert rows(result) == reference
        assert report.deopted
        assert len(report.deopt_events) == 1
        event = report.deopt_events[0]
        assert event.recovered
        assert event.invalidated, "poisoned cache entry must be dropped"
        assert event.blocklisted >= 1
        assert set(event.udf_names) <= set(poisoned)

    def test_blocklist_prevents_immediate_refusion(self, reference,
                                                   adapter_cls):
        qfusor = make_qfusor(adapter_cls)
        qfusor.execute(SQL)
        warm_shape = {
            f.definition.fused_from for f in qfusor.last_report.fused
        }
        poison_traces(qfusor)
        qfusor.execute(SQL)  # deopt happens here
        result = qfusor.execute(SQL)  # next query: section blocklisted
        report = qfusor.last_report
        assert rows(result) == reference
        assert not report.deopted
        assert len(qfusor.heuristics.blocklist) >= 1
        # The failed section must not be re-fused while blocklisted.
        # (Healthy sub-sections may still fuse as fresh, smaller traces.)
        blocklist = qfusor.heuristics.blocklist
        for fused in report.fused:
            assert fused.definition.fused_from not in warm_shape
            key = qfusor.cache.key_for(fused.definition.name)
            assert key is None or not blocklist.is_blocked(key)

    def test_cooldown_expiry_allows_clean_refusion(self, reference,
                                                   adapter_cls):
        qfusor = make_qfusor(
            adapter_cls, QFusorConfig(deopt_cooldown=2)
        )
        qfusor.execute(SQL)
        poison_traces(qfusor)
        qfusor.execute(SQL)  # deopt + blocklist (cooldown 2)
        for _ in range(8):
            result = qfusor.execute(SQL)
            if qfusor.last_report.fused:
                break
        report = qfusor.last_report
        assert report.fused, "section must re-fuse after cooldown expiry"
        assert rows(result) == reference
        assert not report.deopted, "recompiled trace must be clean"


class TestDeoptDisabled:
    def test_poisoned_trace_raises_without_deopt(self):
        qfusor = make_qfusor(MiniDbAdapter, QFusorConfig(deopt=False))
        qfusor.execute(SQL)
        if not qfusor.last_report.fused:
            pytest.skip("query did not fuse")
        poison_traces(qfusor)
        with pytest.raises(UdfExecutionError):
            qfusor.execute(SQL)
        assert not qfusor.last_report.deopted


class TestGenuineFailuresStillRaise:
    def test_unrecoverable_failure_marks_event(self):
        @scalar_udf
        def always_boom(val: str) -> str:
            raise ValueError("genuine bug")

        adapter = MiniDbAdapter()
        adapter.register_table(Table.from_rows(
            "t", [("id", SqlType.INT), ("v", SqlType.TEXT)],
            [(0, "x"), (1, "y")],
        ))
        adapter.register_udf(always_boom)
        adapter.register_udf(r_mark)
        qfusor = QFusor(adapter)
        with pytest.raises(UdfExecutionError):
            qfusor.execute("SELECT r_mark(always_boom(v)) FROM t")
        report = qfusor.last_report
        if report.deopt_events:
            # Deopt was attempted; the unfused re-execution also failed,
            # so the event must be marked unrecovered.
            assert not report.deopt_events[-1].recovered
