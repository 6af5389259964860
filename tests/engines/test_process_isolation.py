"""Process isolation is a pure robustness knob: results never change.

For every udfbench query Q1-Q10, ``RowStoreAdapter(isolation="process")``
must produce the same multiset of rows as the default channel-isolated
adapter — including while worker crashes, hangs, and OOM kills are being
injected into the pool.  Each module teardown asserts no worker process
outlived its adapter.
"""

import multiprocessing
import time

import pytest

from repro.engines import RowStoreAdapter
from repro.errors import QueryTimeoutError
from repro.resilience import QueryContext
from repro.resilience.workers import active_worker_pids
from repro.testing import FaultInjector, inject
from repro.workloads import udfbench


def normalize(rows):
    out = []
    for row in rows:
        out.append(
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        )
    return sorted(map(repr, out))


Q8 = udfbench.q8_selectivity(2015)
ALL_QUERIES = dict(udfbench.QUERIES, Q8=Q8)


@pytest.fixture(scope="module")
def reference_results():
    adapter = RowStoreAdapter()
    udfbench.setup(adapter, "tiny")
    return {
        name: normalize(adapter.execute_sql(sql).to_rows())
        for name, sql in ALL_QUERIES.items()
    }


@pytest.fixture(scope="module")
def isolated_adapter():
    adapter = RowStoreAdapter(isolation="process")
    udfbench.setup(adapter, "tiny")
    yield adapter
    adapter.close()
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert active_worker_pids() == []


@pytest.mark.parametrize("query", sorted(ALL_QUERIES))
def test_isolated_matches_in_process(reference_results, isolated_adapter,
                                     query):
    got = normalize(
        isolated_adapter.execute_sql(ALL_QUERIES[query]).to_rows()
    )
    assert got == reference_results[query], f"{query} diverged"


def test_batches_actually_route_through_workers(isolated_adapter):
    pool = isolated_adapter.workers
    assert pool is not None
    assert pool.batches > 0
    assert not pool.broken


FAULT_QUERIES = ["Q1", "Q4", "Q8", "Q9"]


# Repeated injections against the same module-scoped pool accumulate
# crash counts on recurring batch fingerprints, so some batches cross
# the quarantine threshold mid-suite — exactly the degrade-and-continue
# behaviour under test, hence the warnings are expected.
@pytest.mark.filterwarnings(
    "ignore::repro.resilience.workers.WorkerQuarantineWarning"
)
class TestParityUnderFaults:
    @pytest.mark.parametrize("query", FAULT_QUERIES)
    def test_parity_under_worker_crash(self, reference_results,
                                       isolated_adapter, query):
        with inject(FaultInjector().worker_crash(times=1)):
            got = normalize(
                isolated_adapter.execute_sql(ALL_QUERIES[query]).to_rows()
            )
        assert got == reference_results[query]

    def test_parity_under_worker_hang(self, reference_results,
                                      isolated_adapter):
        pool = isolated_adapter.workers
        pool.configure(batch_timeout_s=0.5)
        try:
            with inject(FaultInjector().worker_hang(seconds=30, times=1)):
                got = normalize(
                    isolated_adapter.execute_sql(ALL_QUERIES["Q1"]).to_rows()
                )
        finally:
            pool.configure(batch_timeout_s=None)
            pool.batch_timeout_s = None
        assert got == reference_results["Q1"]
        assert any(i.kind == "hang" for i in pool.drain_incidents())

    def test_parity_under_worker_oom(self, reference_results):
        adapter = RowStoreAdapter(isolation="process")
        adapter.workers.configure(memory_limit_mb=256)
        udfbench.setup(adapter, "tiny")
        try:
            with inject(FaultInjector().worker_oom(
                alloc_bytes=1 << 30, times=1
            )):
                got = normalize(
                    adapter.execute_sql(ALL_QUERIES["Q9"]).to_rows()
                )
            assert got == reference_results["Q9"]
            pool = adapter.workers
            assert pool.crashes >= 1
        finally:
            adapter.close()

    def test_governed_timeout_kills_hung_worker(self, isolated_adapter):
        # A wedged worker must surface the query deadline, not hang the
        # engine; the adapter keeps working afterwards.
        with inject(FaultInjector().worker_hang(seconds=30, times=1)):
            with pytest.raises(QueryTimeoutError):
                isolated_adapter.execute_sql(
                    ALL_QUERIES["Q9"], context=QueryContext(timeout_s=1.0)
                )
        result = isolated_adapter.execute_sql(ALL_QUERIES["Q9"])
        assert result.num_rows > 0
