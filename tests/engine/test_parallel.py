"""Unit tests for the parallel (morsel) executor."""

import pytest

from repro.engine.parallel import parallel_map, split_ranges
from repro.engines import ParallelDbAdapter
from repro.storage import Table
from repro.types import SqlType
from tests.conftest import TEST_UDFS, make_people_table


class TestSplitRanges:
    def test_even_split(self):
        assert split_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        ranges = split_ranges(10, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert sum(stop - start for start, stop in ranges) == 10

    def test_more_parts_than_rows(self):
        ranges = split_ranges(2, 8)
        assert sum(stop - start for start, stop in ranges) == 2

    def test_empty(self):
        assert split_ranges(0, 4) == [(0, 0)]


class TestParallelMap:
    def test_single_thread_inline(self):
        assert parallel_map(lambda x: x * 2, [1, 2, 3], 1) == [2, 4, 6]

    def test_threaded_preserves_order(self):
        assert parallel_map(lambda x: x * 2, list(range(20)), 4) == [
            x * 2 for x in range(20)
        ]


class TestParallelMapErrorSemantics:
    """Regression tests: the first failure *in item order* propagates,
    deterministically, and the pool never leaks running threads."""

    def test_first_exception_in_item_order_wins_the_race(self):
        import time

        def work(item):
            index, delay, fail = item
            if delay:
                time.sleep(delay)
            if fail:
                raise ValueError(f"item-{index}")
            return index

        # Item 3 fails immediately; item 1 fails after a delay.  The
        # propagated error must be item 1's (lowest index), not
        # whichever worker happened to lose the wall-clock race.
        items = [(0, 0, False), (1, 0.05, True), (2, 0, False), (3, 0, True)]
        for _ in range(5):  # repeat: the old behaviour was racy
            with pytest.raises(ValueError, match="item-1"):
                parallel_map(work, items, 4)

    def test_failure_cancels_queued_items(self):
        import threading

        started = []
        lock = threading.Lock()

        def work(item):
            with lock:
                started.append(item)
            if item == 0:
                raise RuntimeError("early")
            return item

        # 2 workers, 32 items, item 0 fails instantly: the tail of the
        # queue must be cancelled, not drained.
        with pytest.raises(RuntimeError, match="early"):
            parallel_map(work, list(range(32)), 2)
        assert len(started) < 32

    def test_no_threads_leak_after_failure(self):
        import threading
        import time

        def work(item):
            if item == 0:
                raise RuntimeError("boom")
            time.sleep(0.02)
            return item

        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(RuntimeError):
                parallel_map(work, list(range(8)), 4)
        # The pool context-exit joins its workers before returning.
        time.sleep(0.05)
        assert threading.active_count() <= before + 1

    def test_workers_adopt_the_submitters_governance_context(self):
        from repro.resilience import governor

        ctx = governor.QueryContext(timeout_s=30.0)
        with governor.activate(ctx):
            seen = parallel_map(
                lambda _: governor.current() is ctx, [1, 2, 3, 4], 4
            )
        assert seen == [True, True, True, True]

    def test_cancellation_interrupts_workers(self):
        from repro.errors import QueryCancelledError
        from repro.resilience import governor

        ctx = governor.QueryContext()

        def work(item):
            if item == 0:
                ctx.cancel("worker zero says stop")
            for _ in range(1000):
                governor.checkpoint()
            return item

        with governor.activate(ctx):
            with pytest.raises(QueryCancelledError):
                parallel_map(work, list(range(8)), 4)


def people_adapter(threads):
    # Morsels far smaller than the table so sharding actually kicks in.
    adapter = ParallelDbAdapter(threads=threads)
    adapter.database.own_scheduler.morsel_size = 16
    for udf in TEST_UDFS:
        adapter.register_udf(udf)
    rows = []
    for i in range(100):
        rows.append((100 + i, f"Person {i}", 20 + (i % 40), "City", 1.0))
    adapter.register_table(Table.from_rows(
        "people",
        [
            ("id", SqlType.INT), ("name", SqlType.TEXT),
            ("age", SqlType.INT), ("city", SqlType.TEXT),
            ("score", SqlType.FLOAT),
        ],
        make_people_table().to_rows() + rows,
    ))
    return adapter


class TestParallelExecutor:
    @pytest.fixture
    def parallel_adapter(self):
        return people_adapter(threads=3)

    def test_parallel_matches_serial(self, parallel_adapter):
        serial = people_adapter(threads=1)
        sql = "SELECT t_lower(name) AS n FROM people WHERE age > 30 ORDER BY n"
        assert (
            parallel_adapter.execute_sql(sql).to_rows()
            == serial.execute_sql(sql).to_rows()
        )
        # Filter and the UDF Project both ran over a multi-morsel grid.
        assert parallel_adapter.database.scheduler.stats()["morsels_run"] > 4

    def test_parallel_aggregate(self, parallel_adapter):
        result = parallel_adapter.execute_sql(
            "SELECT count(*) AS n FROM people WHERE age >= 20"
        )
        assert result.to_rows()[0][0] > 100

    def test_small_inputs_fall_back_inline(self, parallel_adapter):
        result = parallel_adapter.execute_sql(
            "SELECT id FROM people WHERE id = 1"
        )
        assert result.to_rows() == [(1,)]

    def test_threads_ride_without_the_columnar_plane(self, parallel_adapter):
        # dbX is the vector executor plus a threaded scheduler: no
        # kernels, so UDF boundary crossings stay per value (Fig. 6c).
        assert parallel_adapter.columnar is None
        executor = parallel_adapter.database._make_executor()
        assert type(executor).__name__ == "VectorExecutor"
        assert executor.scheduler.threads == 3
