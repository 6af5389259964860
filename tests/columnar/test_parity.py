"""Morsel-parallel vs classic parity on the UDFBench suite.

Every UDFBench query must produce byte-identical results on the
columnar/morsel plane as on the classic paths, across all three
deployments and at 1/2/8 morsel threads — and must fail identically
too: injected UDF faults, cancellations, and deadline storms all have
to surface the same typed error whether the rows ran serially or
spread over worker threads.
"""

import threading

import pytest

from repro.engines import MiniDbAdapter, RowStoreAdapter, SqliteAdapter
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.resilience import QueryContext, governor
from repro.storage import Table
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf import scalar_udf
from repro.workloads import udfbench

#: Morsels far smaller than the tiny tables so the grid is real even at
#: test scale (otherwise everything fits one morsel and parallel paths
#: never fire).
MORSEL_SIZE = 7

QUERIES = list(udfbench.QUERIES.items()) + [
    ("Q8", udfbench.q8_selectivity(2015))
]

ENGINES = ["minidb", "minidb_row", "sqlite"]


def make_adapter(engine):
    if engine == "minidb":
        return MiniDbAdapter()
    if engine == "minidb_row":
        return RowStoreAdapter()
    return SqliteAdapter()


def run_all(adapter):
    """Result multisets per query; queries the deployment cannot run
    (e.g. table UDFs on sqlite) record their error type instead, so the
    columnar plane must fail exactly where classic fails."""
    out = {}
    for name, sql in QUERIES:
        try:
            out[name] = sorted(map(repr, adapter.execute_sql(sql).to_rows()))
        except Exception as exc:
            out[name] = ("unsupported", type(exc).__name__)
    return out


_classic_cache = {}


def classic_results(engine):
    """Reference results on the classic path (computed once per engine)."""
    if engine not in _classic_cache:
        adapter = make_adapter(engine)
        udfbench.setup(adapter, "tiny", seed=11)
        try:
            _classic_cache[engine] = run_all(adapter)
        finally:
            adapter.close()
    return _classic_cache[engine]


class TestQueryParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_udfbench_parity(self, engine, threads):
        adapter = make_adapter(engine)
        adapter.enable_columnar(morsel_size=MORSEL_SIZE, threads=threads)
        udfbench.setup(adapter, "tiny", seed=11)
        try:
            assert run_all(adapter) == classic_results(engine)
        finally:
            adapter.close()

    def test_morsel_machinery_actually_engaged(self):
        adapter = MiniDbAdapter()
        adapter.enable_columnar(morsel_size=MORSEL_SIZE, threads=2)
        udfbench.setup(adapter, "tiny", seed=11)
        try:
            run_all(adapter)
            assert adapter.columnar.scheduler.stats()["morsels_run"] > 10
        finally:
            adapter.close()


    def test_disabled_plane_builds_the_plain_executor(self):
        # Structurally free when off: a never-enabled and a detached
        # plane both give the vector executor no scheduler, so no
        # operator ever consults a sharding decision.
        adapter = MiniDbAdapter()
        try:
            def scheduler():
                executor = adapter.database._make_executor()
                assert type(executor).__name__ == "VectorExecutor"
                return executor.scheduler

            assert scheduler() is None
            adapter.enable_columnar()
            assert scheduler() is adapter.columnar.scheduler
            adapter.disable_columnar()
            assert scheduler() is None
        finally:
            adapter.close()


class TestFaultParity:
    @pytest.mark.parametrize("threads", [1, 8])
    def test_injected_udf_fault_raises_identically(self, threads):
        def boom(adapter):
            with inject(
                FaultInjector().udf_exception("cleandate", row=2, scope="any")
            ):
                with pytest.raises(Exception) as excinfo:
                    adapter.execute_sql(udfbench.QUERIES["Q1"])
            return type(excinfo.value), str(excinfo.value)

        classic = MiniDbAdapter()
        udfbench.setup(classic, "tiny", seed=11)
        morsel = MiniDbAdapter()
        morsel.enable_columnar(morsel_size=MORSEL_SIZE, threads=threads)
        udfbench.setup(morsel, "tiny", seed=11)
        try:
            assert boom(morsel) == boom(classic)
        finally:
            classic.close()
            morsel.close()


@scalar_udf
def cancel_at_fifty(x: int) -> int:
    ctx = governor.current()
    if x == 50 and ctx is not None:
        ctx.cancel()
    return x + 1


class TestGovernanceParity:
    def _adapter(self, threads):
        adapter = MiniDbAdapter()
        if threads > 0:
            adapter.enable_columnar(morsel_size=4, threads=threads)
        # Enough rows past the cancel point that both paths must hit a
        # cooperative checkpoint (classic strides every 256 rows).
        adapter.register_table(Table.from_rows(
            "t", [("x", SqlType.INT)], [(i,) for i in range(2000)]
        ))
        adapter.register_udf(cancel_at_fifty)
        return adapter

    @pytest.mark.parametrize("threads", [0, 1, 8])
    def test_mid_morsel_cancellation(self, threads):
        adapter = self._adapter(threads)
        try:
            # The catch sits OUTSIDE activate: once the token cancels,
            # code lingering inside the governed block is fair game for
            # the watchdog's async refire (that is its contract).
            with pytest.raises(QueryCancelledError):
                with governor.activate(QueryContext()):
                    adapter.execute_sql("SELECT cancel_at_fifty(x) FROM t")
        finally:
            adapter.close()

    @pytest.mark.parametrize("threads", [0, 8])
    def test_expired_deadline_storm(self, threads):
        adapter = self._adapter(threads)
        try:
            for _ in range(5):
                with pytest.raises(QueryTimeoutError):
                    with governor.activate(QueryContext(timeout_s=0.0)):
                        adapter.execute_sql(
                            "SELECT cancel_at_fifty(x) FROM t"
                        )
        finally:
            adapter.close()

    @pytest.mark.parametrize("threads", [0, 8])
    def test_concurrent_cancellation_storm(self, threads):
        adapter = self._adapter(threads)
        errors = []

        def one_query():
            context = QueryContext()
            timer = threading.Timer(0.005, context.cancel)
            timer.start()
            try:
                with governor.activate(context):
                    adapter.execute_sql(
                        "SELECT cancel_at_fifty(x) FROM t"
                    )
            except QueryCancelledError:
                pass
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                timer.cancel()

        try:
            workers = [
                threading.Thread(target=one_query) for _ in range(4)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert errors == []
        finally:
            adapter.close()
