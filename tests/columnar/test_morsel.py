"""Morsel scheduler: grids, ordering, deopt-to-serial, governance."""

import sys
import threading

import pytest

from repro.columnar import MorselScheduler
from repro.errors import QueryCancelledError
from repro.resilience import QueryContext, governor


@pytest.fixture
def sched():
    return MorselScheduler(threads=4, morsel_size=10)


class TestMorselGrid:
    def test_even_split(self):
        s = MorselScheduler(morsel_size=10)
        assert s.morsels(30) == [(0, 10), (10, 20), (20, 30)]

    def test_uneven_tail(self):
        s = MorselScheduler(morsel_size=10)
        assert s.morsels(25) == [(0, 10), (10, 20), (20, 25)]

    def test_zero_rows(self):
        assert MorselScheduler(morsel_size=10).morsels(0) == []

    def test_size_smaller_than_morsel(self):
        assert MorselScheduler(morsel_size=10).morsels(3) == [(0, 3)]


class TestMapRanges:
    def test_serial_equals_parallel(self, sched):
        fn = lambda start, stop: sum(range(start, stop))
        serial = MorselScheduler(threads=1, morsel_size=10)
        assert sched.map_ranges(95, fn) == serial.map_ranges(95, fn)

    def test_results_are_in_morsel_order(self, sched):
        out = sched.map_ranges(40, lambda start, stop: (start, stop))
        assert out == [(0, 10), (10, 20), (20, 30), (30, 40)]

    def test_empty_range(self, sched):
        assert sched.map_ranges(0, lambda a, b: 1) == []

    def test_stats_shape(self, sched):
        sched.map_ranges(20, lambda a, b: None)
        stats = sched.stats()
        assert stats["threads"] == 4
        assert stats["morsel_size"] == 10
        assert stats["morsels_run"] == 2
        assert set(stats) == {
            "threads", "morsel_size", "morsels_run", "deopts",
        }


    def test_counters_are_exact_under_concurrent_queries(self, sched):
        # One scheduler serves every query on its adapter: counting must
        # not lose updates when stages are submitted from many threads.
        stages, submitters = 200, 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def submit():
                for _ in range(stages):
                    sched.map_ranges(30, lambda a, b: None)

            threads = [
                threading.Thread(target=submit) for _ in range(submitters)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sched.stats()["morsels_run"] == stages * submitters * 3


class TestDeoptToSerial:
    def test_error_is_first_in_row_order(self, sched):
        calls = []

        def fn(start, stop):
            calls.append(start)
            if start >= 20:
                raise ValueError(f"morsel-{start}")
            return start

        # Parallel execution may surface morsel-30 first; the serial
        # re-run must make morsel-20's error the one reported.
        with pytest.raises(ValueError, match="morsel-20"):
            sched.map_ranges(40, fn)
        assert sched.stats()["deopts"] == 1

    def test_deopt_rerun_still_returns_results_when_error_was_transient(self):
        sched = MorselScheduler(threads=2, morsel_size=5)
        flaky = {"armed": True}

        def fn(start, stop):
            if start == 5 and flaky.pop("armed", False):
                raise RuntimeError("transient")
            return start

        assert sched.map_ranges(20, fn) == [0, 5, 10, 15]
        assert sched.stats()["deopts"] == 1
        # Counted per stage: the parallel attempt plus the serial re-run.
        assert sched.stats()["morsels_run"] == 8


class TestGovernance:
    def test_cancellation_interrupts_parallel_stage(self, sched):
        context = QueryContext()
        done = []

        def fn(start, stop):
            done.append(start)
            if len(done) == 2:
                context.cancel()
            return start

        with governor.activate(context):
            with pytest.raises(QueryCancelledError):
                sched.map_ranges(1000, fn)
        # An interrupt must not trigger the serial re-run ladder.
        assert sched.stats()["deopts"] == 0
        assert len(done) < 100

    def test_pre_cancelled_context_runs_nothing(self, sched):
        context = QueryContext()
        context.cancel()
        with governor.activate(context):
            with pytest.raises(QueryCancelledError):
                sched.map_ranges(50, lambda a, b: a)
