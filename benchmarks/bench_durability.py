"""Durability overhead and recovery-time benchmarks.

Two acceptance gates ride here:

1. **WAL-disabled overhead < 3%, structurally.**  With no durability
   manager attached, every catalog mutation costs exactly one
   ``if self.durability is not None:`` attribute-load branch (plus one
   ``getattr(catalog, "generation", 0)`` per result-cache key probe).
   Like ``bench_obs_overhead``, we count the branches a query actually
   reaches (by attaching a counting stub) and multiply by the measured
   per-branch cost — an estimate immune to scheduler noise.

2. **Zero durability syscalls when disabled.**  The WAL module's
   ``IO_CALLS`` counters are incremented inside every durability
   write/fsync/truncate.  Running the whole UDFBench query set with no
   manager attached must leave them untouched — the disabled path
   provably performs no I/O, syscall by syscall.

Plus the headline robustness numbers for EXPERIMENTS.md: recovery time
vs WAL length (replay-heavy) and vs checkpoint freshness.
"""

import timeit

import pytest

from repro.bench import FigureReport
from repro.bench.harness import ALL_SQL, setup_adapter, time_call
from repro.core import QFusor
from repro.engines import MiniDbAdapter
from repro.storage import Catalog, Column, Table
from repro.storage.durability import DurabilityManager
from repro.storage.durability.wal import IO_CALLS
from repro.types import SqlType

OVERHEAD_BUDGET = 0.03  # the <3% acceptance bound


def measure_branch_cost() -> float:
    """Seconds per disabled durability check (one attribute load + is)."""
    loops = 200_000
    total = min(
        timeit.repeat(
            "catalog.durability is not None",
            setup=(
                "from repro.storage import Catalog; catalog = Catalog()"
            ),
            repeat=5, number=loops,
        )
    )
    return total / loops


class _CountingStub:
    """Stands in for a DurabilityManager: counts the guarded calls a
    query reaches without doing any I/O.  Each count maps back to one
    disabled-path branch."""

    def __init__(self):
        self.calls = 0

    def log_table(self, table, epoch):
        self.calls += 1

    def log_delta(self, name, delta, epoch):
        self.calls += 1

    def log_drop(self, name, epoch):
        self.calls += 1

    def log_touch(self, name, epoch):
        self.calls += 1


def count_checkpoints(qfusor: QFusor, query_id: str) -> int:
    """Durability branch sites one execution of the query reaches."""
    catalog = qfusor.adapter.database.catalog
    stub = _CountingStub()
    catalog.durability = stub
    try:
        qfusor.execute(ALL_SQL[query_id])
    finally:
        catalog.durability = None
    # +1 for the generation getattr in every result-key derivation.
    return stub.calls + 1


def run_overhead_report(scale: str, repeats: int = 3) -> FigureReport:
    report = FigureReport(
        "durability_overhead",
        "WAL-disabled durability overhead per query", unit="%",
    )
    adapter = setup_adapter(MiniDbAdapter(), scale)
    qfusor = QFusor(adapter)
    branch_cost = measure_branch_cost()
    report.add("branch-ns", "cost", branch_cost * 1e9)
    io_before = dict(IO_CALLS)
    for query_id in sorted(ALL_SQL):
        qfusor.execute(ALL_SQL[query_id])  # warm
        checkpoints = count_checkpoints(qfusor, query_id)
        wall, _ = time_call(
            lambda: qfusor.execute(ALL_SQL[query_id]), repeats=repeats
        )
        estimate = checkpoints * branch_cost / wall if wall else 0.0
        report.add("checkpoints", query_id, checkpoints)
        report.add("wall-ms", query_id, wall * 1000)
        report.add("overhead-pct", query_id, estimate * 100)
    # The zero-syscall ledger across the whole sweep.
    for op in ("write", "fsync", "truncate"):
        report.add("io-calls-delta", op, IO_CALLS[op] - io_before[op])
    report.emit()
    return report


def _filled_directory(directory, n_ops: int, checkpoint_threshold: int):
    """A crashed database directory with ``n_ops`` logged mutations."""
    catalog = Catalog()
    manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    manager.attach(catalog)
    rows = list(range(64))
    for i in range(n_ops):
        catalog.register(
            Table(
                f"t{i % 8}",
                [
                    Column("a", SqlType.INT, rows),
                    Column("b", SqlType.FLOAT, [r / 3.0 for r in rows]),
                ],
            ),
            replace=True,
        )
    manager.abandon()  # crash


def run_recovery_report(tmp_base, scale: str) -> FigureReport:
    report = FigureReport(
        "durability_recovery", "Recovery time vs log shape", unit="ms",
    )
    scenarios = [
        ("replay-100", 100, 1 << 30),   # no checkpoint: pure replay
        ("replay-500", 500, 1 << 30),
        ("ckpt+tail", 500, 64 << 10),   # checkpoints keep the tail short
    ]
    for label, n_ops, threshold in scenarios:
        directory = tmp_base / label
        _filled_directory(directory, n_ops, threshold)

        def recover():
            catalog = Catalog()
            manager = DurabilityManager(
                directory, checkpoint_threshold=threshold
            )
            rep = manager.attach(catalog)
            manager.abandon()  # leave the directory crashed for re-runs
            return rep

        wall, rep = time_call(recover, repeats=3)
        report.add("recovery-ms", label, wall * 1000)
        report.add("replayed", label, rep.records_replayed)
        report.add("ckpt-tables", label, rep.tables_restored)
    report.emit()
    return report


@pytest.mark.benchmark(group="durability")
def test_wal_disabled_overhead_within_budget(benchmark, bench_scale):
    report = benchmark.pedantic(
        lambda: run_overhead_report(bench_scale), rounds=1, iterations=1
    )
    for query_id in sorted(ALL_SQL):
        pct = report.value("overhead-pct", query_id)
        assert pct is not None
        assert pct < OVERHEAD_BUDGET * 100, (
            f"{query_id}: structural durability overhead {pct:.3f}% "
            f"exceeds the {OVERHEAD_BUDGET:.0%} budget"
        )
    # Zero-syscall gate: the whole disabled sweep performed no
    # durability I/O whatsoever.
    for op in ("write", "fsync", "truncate"):
        assert report.value("io-calls-delta", op) == 0, (
            f"disabled path performed durability {op} syscalls"
        )


@pytest.mark.benchmark(group="durability")
def test_recovery_time_report(benchmark, bench_scale, tmp_path):
    report = benchmark.pedantic(
        lambda: run_recovery_report(tmp_path, bench_scale),
        rounds=1, iterations=1,
    )
    # 500 ops + the writer's generation record (+ one gen record per
    # prior timing repeat — each recovery appends its own).
    assert report.value("replayed", "replay-500") >= 501
    # Checkpointing must keep recovery cheaper than full replay.
    assert report.value("recovery-ms", "ckpt+tail") < report.value(
        "recovery-ms", "replay-500"
    )


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    run_overhead_report(scale)
    with tempfile.TemporaryDirectory() as tmp:
        run_recovery_report(Path(tmp), scale)
