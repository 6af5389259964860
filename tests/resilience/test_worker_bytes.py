"""Per-batch shipped-bytes accounting on the worker pool.

Every batch crosses the pipe as one pickle of its arguments and one
pickle of its result; ``last_batch_bytes`` reports both sizes (the
ledger's worker probe reads them), and the worker's answer must equal
the in-process run of the same batch.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.resilience.workers import WorkerPool, active_worker_pids
from repro.udf import aggregate_udf, scalar_udf


@scalar_udf
def b_double(x: int) -> int:
    return x * 2


@scalar_udf
def b_upper(s: str) -> str:
    return s.upper()


@aggregate_udf
class b_sum:
    def __init__(self):
        self.total = 0

    def step(self, value: int):
        self.total += value

    def final(self) -> int:
        return self.total


def _assert_no_children(timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert active_worker_pids() == []


N = 4096
INTS = list(range(N))
WORDS = [f"word-{i}".encode() for i in range(512)]
GROUP_IDS = np.asarray([i % 4 for i in range(N)], dtype=np.int64)


def _in_process(udf, kind, args):
    """The same batch run by the parent's own wrapper."""
    from repro.udf.wrappers import build_wrapper

    definition = udf.__udf__
    if kind == "value":
        return definition.func(*args)
    return build_wrapper(definition).entry(*args)


#: kind -> (udf, wire kind, batch args)
BATCHES = {
    "scalar": (b_double, "scalar", ([INTS], N)),
    "aggregate": (b_sum, "aggregate", ([INTS], N, GROUP_IDS, 4)),
    "text": (b_upper, "scalar", ([WORDS], len(WORDS))),
    "value": (b_double, "value", (21,)),
}


def _run(pool, case):
    udf, kind, args = BATCHES[case]
    return pool.run_batch(
        udf.__udf__, kind, args,
        fallback=lambda: pytest.fail("batch ran in-process"),
    )


@pytest.mark.parametrize("case", sorted(BATCHES))
def test_batch_accounting(case):
    udf, kind, args = BATCHES[case]
    expected = _in_process(udf, kind, args)
    pool = WorkerPool(pool_size=1, restart_backoff_s=0.001)
    try:
        assert _run(pool, case) == expected
        batch = pool.last_batch_bytes
        assert batch["sent"] > 0 and batch["received"] > 0
    finally:
        pool.shutdown()
    _assert_no_children()


class TestAccounting:
    def test_counters_accumulate(self):
        pool = WorkerPool(pool_size=1, restart_backoff_s=0.001)
        try:
            _run(pool, "scalar")
            batch = dict(pool.last_batch_bytes)
            assert (pool.bytes_sent, pool.bytes_received) == (
                batch["sent"], batch["received"]
            )
            _run(pool, "scalar")
            # The cumulative counters add up both identical batches.
            assert (pool.bytes_sent, pool.bytes_received) == (
                2 * batch["sent"], 2 * batch["received"]
            )
        finally:
            pool.shutdown()
        _assert_no_children()
