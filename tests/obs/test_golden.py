"""Golden-file tests: QueryReport text rendering and Chrome-trace JSON.

A fake clock advancing exactly 1ms per reading makes every duration in
the synthetic trace deterministic, so both artifacts are compared
byte-for-byte against checked-in golden files.  Regenerate after an
intentional format change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden.py
"""

import json
import os
import pathlib

import pytest

from repro.obs import QueryReport, chrome_trace_json, tracer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class FakeClock:
    """Advances exactly 1ms per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        value = self.now
        self.now += 0.001
        return value


def build_reference_trace():
    """A synthetic full-pipeline trace with one governance event."""
    with tracer.trace_query(
        "Q1", clock=FakeClock(), wall_clock=lambda: 1_700_000_000.0,
        adapter="minidb",
    ) as trace:
        trace.root.attrs["sql"] = "SELECT extractmonth(cleandate(d)) FROM t"
        with tracer.span("parse"):
            pass
        with tracer.span("plan"):
            pass
        with tracer.span("fuse", sections=2, fused=1, cache_hits=0):
            with tracer.span("jit_compile", udf="qf_fused_1", stages=3):
                pass
        with tracer.span("execute", adapter="minidb", rows=512):
            with tracer.span("operator:Scan", "operator", rows=100000):
                pass
            with tracer.span("operator:Expand", "operator", rows=512):
                with tracer.span("udf:qf_fused_1", "udf_batch", rows=100000):
                    pass
                tracer.add_event("deopt", udfs="extractmonth", error="ValueError")
    return trace


def _check_golden(name: str, actual: str):
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(actual)
        pytest.skip(f"updated golden file {path.name}")
    expected = path.read_text()
    assert actual == expected, (
        f"{path.name} drifted; run with REPRO_UPDATE_GOLDEN=1 to regenerate "
        f"after an intentional format change"
    )


def test_report_render_golden():
    report = QueryReport(build_reference_trace())
    _check_golden("report_q1.txt", report.render() + "\n")


def test_report_render_redacted_golden():
    report = QueryReport(build_reference_trace())
    _check_golden("report_q1_redacted.txt", report.render(redact_timings=True) + "\n")


def test_chrome_trace_golden():
    trace = build_reference_trace()
    _check_golden("chrome_q1.json", chrome_trace_json(trace) + "\n")


def test_stage_seconds_from_fake_clock():
    report = QueryReport(build_reference_trace())
    stages = report.stage_seconds()
    # Every span is opened and closed one fake tick apart; inclusive
    # durations follow directly from the span layout.
    assert stages["parse"] == pytest.approx(0.001)
    assert stages["plan"] == pytest.approx(0.001)
    assert stages["jit_compile"] == pytest.approx(0.001)
    assert stages["fuse"] == pytest.approx(0.002)  # 3 ticks minus jit
    assert stages["execute"] == pytest.approx(0.008)
    assert stages["total"] == pytest.approx(
        report.trace.root.end - report.trace.root.start
    )


def test_events_flattened_in_order():
    report = QueryReport(build_reference_trace())
    events = report.events()
    assert [event["name"] for event in events] == ["deopt"]
    assert events[0]["span"] == "operator:Expand"
    assert events[0]["udfs"] == "extractmonth"


class TestChromeSchema:
    """Structural schema checks, valid for any trace (real clocks too)."""

    def assert_valid(self, document):
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert document["displayTimeUnit"] == "ms"
        assert isinstance(document["otherData"]["wall_start_s"], float)
        phases = {"M", "X", "i"}
        for event in document["traceEvents"]:
            assert event["ph"] in phases
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
            assert isinstance(event["name"], str) and event["name"]
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
                assert "name" in event["args"]
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert isinstance(event["cat"], str)
            if event["ph"] == "i":
                assert event["s"] == "t"
                assert event["cat"] == "event"
            # args must be JSON-primitive only
            for value in event.get("args", {}).values():
                assert isinstance(value, (str, int, float, bool)) or value is None

    def test_fake_trace_validates(self):
        report = QueryReport(build_reference_trace())
        self.assert_valid(report.chrome_trace())

    def test_real_query_trace_validates(self):
        from repro.core import QFusor, QFusorConfig
        from repro.engines import MiniDbAdapter
        from tests.conftest import TEST_UDFS, make_people_table

        adapter = MiniDbAdapter()
        adapter.register_table(make_people_table())
        for udf in TEST_UDFS:
            adapter.register_udf(udf)
        qfusor = QFusor(adapter, QFusorConfig(cost_based=False))
        with tracer.trace_query("real") as trace:
            qfusor.execute("SELECT t_upper(t_lower(name)) FROM people")
        document = QueryReport(trace).chrome_trace()
        self.assert_valid(document)
        # round-trips through json
        json.loads(json.dumps(document))
        names = [event["name"] for event in document["traceEvents"]]
        for stage in ("parse", "plan", "fuse", "execute"):
            assert stage in names
