"""Disabled observability must be a no-op: structural proof + smoke.

The structural test monkeypatches every instrumentation entry point to
raise, runs a full fused query with obs disabled, and passes only if
none of them was ever reached — i.e. every checkpoint really is behind
an ``if OBS.tracing:`` / ``if OBS.metrics:`` branch.  The smoke test
runs the benchmark's structural overhead estimate on one query and
asserts the <3% budget.
"""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.obs import METRICS, tracer
from repro.storage import Table
from repro.types import SqlType
from repro.udf import scalar_udf


@scalar_udf
def oh_lower(val: str) -> str:
    return val.lower()


@scalar_udf
def oh_mark(val: str) -> str:
    return "<" + val + ">"


def make_qfusor(config=QFusorConfig(cost_based=False)):
    adapter = MiniDbAdapter()
    adapter.register_table(Table.from_rows(
        "t", [("id", SqlType.INT), ("v", SqlType.TEXT)],
        [(i, f"Row{i}") for i in range(64)],
    ))
    adapter.register_udf(oh_lower)
    adapter.register_udf(oh_mark)
    return QFusor(adapter, config)


def poison_instrumentation(monkeypatch):
    """Make every entry point the guarded call sites can reach raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError(
            "instrumentation reached with observability disabled"
        )

    monkeypatch.setattr(tracer, "span_start", forbidden)
    monkeypatch.setattr(tracer, "span_end", forbidden)
    monkeypatch.setattr(tracer, "add_event", forbidden)
    monkeypatch.setattr(tracer, "maybe_trace", forbidden)
    monkeypatch.setattr(METRICS, "counter", forbidden)
    monkeypatch.setattr(METRICS, "histogram", forbidden)


class TestDisabledObsIsStructurallyFree:
    def test_no_instrumentation_call_happens_when_disabled(self, monkeypatch):
        qfusor = make_qfusor()
        sql = "SELECT oh_mark(oh_lower(v)) AS o FROM t WHERE id < 50"
        qfusor.execute(sql)  # warm: compile outside the poisoned window
        assert qfusor.last_report.fused

        poison_instrumentation(monkeypatch)
        tracer.disable()
        result = qfusor.execute(sql)  # must not raise
        assert len(list(result.to_rows())) == 50

    def test_cold_compile_is_also_free_when_disabled(self, monkeypatch):
        """The jit_compile path itself (cache miss) is fully guarded."""
        qfusor = make_qfusor()
        poison_instrumentation(monkeypatch)
        tracer.disable()
        qfusor.execute("SELECT oh_lower(oh_mark(v)) AS o FROM t")
        assert qfusor.last_report.fused

    def test_tier_gate_is_also_free_when_disabled(self, monkeypatch):
        """Both tier decisions: cold on first sight, prepare on second."""
        qfusor = make_qfusor(QFusorConfig())
        poison_instrumentation(monkeypatch)
        tracer.disable()
        sql = "SELECT oh_mark(oh_lower(v)) AS o FROM t"
        qfusor.execute(sql)
        assert qfusor.last_report.tier.startswith("cold:")
        qfusor.execute(sql)
        assert qfusor.last_report.tier == "prepare: second sight"
        assert qfusor.last_report.fused


class TestOverheadBudgetSmoke:
    def test_structural_estimate_under_budget_on_one_query(self):
        import importlib
        import pathlib
        import sys

        bench_dir = str(
            pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
        )
        sys.path.insert(0, bench_dir)
        try:
            bench = importlib.import_module("bench_obs_overhead")
        finally:
            sys.path.remove(bench_dir)

        from repro.bench.harness import ALL_SQL, setup_adapter, time_call

        branch_cost = bench.measure_branch_cost()
        assert branch_cost < 1e-6, "a disabled check must be sub-microsecond"

        adapter = setup_adapter(MiniDbAdapter(), "tiny")
        qfusor = QFusor(adapter)
        qfusor.execute(ALL_SQL["Q1"])
        checkpoints = bench.count_checkpoints(qfusor, "Q1")
        assert checkpoints > 0
        wall, _ = time_call(
            lambda: qfusor.execute(ALL_SQL["Q1"]), repeats=3
        )
        estimate = checkpoints * branch_cost / wall
        assert estimate < bench.OVERHEAD_BUDGET, (
            f"Q1 structural overhead estimate {estimate:.2%} over budget "
            f"({checkpoints} checkpoints x {branch_cost * 1e9:.0f}ns "
            f"/ {wall * 1000:.1f}ms)"
        )


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    tracer.disable()
