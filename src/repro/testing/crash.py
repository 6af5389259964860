"""Crash-consistency harness: randomized kill injection + recovery audit.

The harness drives one deterministic, seeded catalog workload against a
WAL'd database directory, kills the writer at a randomized durability
fault point — a torn ``wal_append`` (cut at an arbitrary byte), a lost
``wal_fsync``, a torn ``checkpoint_write``, a crash straddling
``checkpoint_replace``, ``checkpoint_reset``, or the truncate-to-header
window of ``wal_reset`` — recovers the directory, and audits the
recovered state against an **uncrashed twin** that applied the same ops
in plain memory:

* **No acked loss / no unacked resurrection** — the recovered catalog
  (tables *and* snapshot epochs) must equal the twin at ``ops[:k]`` for
  some ``k`` with ``acked <= k <= acked + 1``.  ``k = acked`` is a torn
  in-flight op; ``k = acked + 1`` is the durable-but-unacknowledged
  window (the frame hit disk, the fsync acknowledgement didn't) — both
  legal, anything else is corruption.
* **Generation advance** — the recovered generation strictly exceeds
  the writer's, so any cache entry keyed before the crash is
  unreachable after it.
* **Post-recovery durability** — an op acknowledged by the recovered
  incarnation survives the *next* restart, and the generation advances
  again.  This is the invariant a torn ``wal_reset`` breaks when
  recovery fails to restore LSN monotonicity: the reopened log restarts
  at ``base_lsn=0`` and the following replay skips fresh appends as
  already-checkpointed.

Two writer modes share the verification path: ``run_inprocess_crash``
raises :class:`~repro.errors.SimulatedCrash` at the fault point
(cheap — hundreds of points per test run), and ``run_subprocess_crash``
forks a real writer process and lets the fault point ``SIGKILL`` it
mid-syscall, acknowledging ops through an fsync'd ack file exactly the
way a client would observe commits.
"""

from __future__ import annotations

import os
import random
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import SimulatedCrash
from ..storage.catalog import Catalog, Delta
from ..storage.column import Column
from ..storage.durability import DurabilityManager
from ..storage.durability import records as dur_records
from ..storage.table import Table
from ..types import SqlType
from . import faults

__all__ = [
    "build_workload",
    "apply_op",
    "catalog_state",
    "random_crash_spec",
    "run_inprocess_crash",
    "run_subprocess_crash",
    "CrashVerdict",
]

_TABLE_NAMES = ("orders", "users", "events", "ext_rows")


# ----------------------------------------------------------------------
# Deterministic workload
# ----------------------------------------------------------------------


def _make_table(name: str, seed: int) -> Table:
    """A small deterministic table image derived from ``seed``."""
    rows = seed % 5 + 1
    ints = [(seed * 31 + i * 7) % 1000 for i in range(rows)]
    texts = [f"v{seed}_{i}" if (seed + i) % 4 else None for i in range(rows)]
    floats = [((seed + i) % 17) / 4.0 for i in range(rows)]
    return Table(
        name,
        [
            Column("a", SqlType.INT, ints),
            Column("b", SqlType.TEXT, texts),
            Column("c", SqlType.FLOAT, floats),
        ],
    )


def build_workload(seed: int, n_ops: int = 24) -> List[Tuple]:
    """A seeded list of catalog ops: register / replace / drop / touch,
    and insert / update / delete row deltas on live tables.

    Fully deterministic in ``seed`` so the crashed writer, the uncrashed
    twin, and the subprocess writer all derive the identical op list.
    """
    rng = random.Random(seed)
    ops: List[Tuple] = []
    live = set()
    for i in range(n_ops):
        name = rng.choice(_TABLE_NAMES)
        if name == "ext_rows":
            # Externally-stored table: epoch-only traffic.
            ops.append(("touch", name))
            continue
        roll = rng.random()
        if name not in live:
            ops.append(("register", name, seed * 100 + i))
            live.add(name)
        elif roll < 0.1:
            ops.append(("drop", name))
            live.discard(name)
        elif roll < 0.25:
            ops.append(("touch", name))
        elif roll < 0.45:
            ops.append(("register", name, seed * 100 + i))
        else:
            ops.append((rng.choice(dur_records.DELTA_OPS), name, seed * 100 + i))
    return ops


def _make_delta(table: Table, kind: str, seed: int) -> Delta:
    """A deterministic row delta against ``table``'s current rows."""
    if kind == "insert":
        rows = _make_table(table.name, seed)
        return Delta("insert", columns=dict(enumerate(rows.columns)))
    positions = [p for p in range(table.num_rows) if (p + seed) % 3 == 0]
    if kind == "delete":
        return Delta("delete", positions)
    patch = _make_table(table.name, seed).take(
        [p % (seed % 5 + 1) for p in positions]
    )
    return Delta("update", positions, {0: patch.columns[0], 1: patch.columns[1]})


def apply_op(catalog: Catalog, op: Tuple) -> None:
    kind = op[0]
    if kind == "register":
        catalog.register(_make_table(op[1], op[2]), replace=True)
    elif kind == "drop":
        catalog.drop(op[1])
    elif kind == "touch":
        catalog.touch(op[1])
    elif kind in dur_records.DELTA_OPS:
        catalog.write(op[1], _make_delta(catalog.get(op[1]), kind, op[2]))
    else:  # pragma: no cover - workload generator bug
        raise ValueError(f"unknown op {op!r}")


def catalog_state(catalog: Catalog) -> Dict[str, Any]:
    """Comparable full state: table images + snapshot epochs."""
    return {
        "tables": {
            t.name.lower(): dur_records.encode_table(t) for t in catalog
        },
        "epochs": dict(catalog._epochs),
    }


# ----------------------------------------------------------------------
# Crash spec selection
# ----------------------------------------------------------------------


def random_crash_spec(
    rng: random.Random, n_ops: int
) -> Tuple[str, int, Optional[int]]:
    """Pick a (stage, occurrence, cut) fault point for one run.

    WAL stages land anywhere in the workload; checkpoint stages target
    early occurrences (a small threshold makes them frequent).  ``cut``
    tears the write at a random byte; ``None`` lets the full write land
    before the crash — the durable-but-unacked window.
    """
    stage = rng.choice(faults.DURABILITY_STAGES)
    if stage in ("wal_append", "wal_fsync"):
        at = rng.randrange(max(1, n_ops))
    else:
        # Checkpoint-path stages (including wal_reset) only occur once
        # per threshold crossing: target the first few occurrences.
        at = rng.randrange(3)
    cut: Optional[int] = None
    if (
        stage in ("wal_append", "checkpoint_write", "wal_reset")
        and rng.random() < 0.7
    ):
        cut = rng.randrange(0, 200)
    return stage, at, cut


# ----------------------------------------------------------------------
# Verification (shared by both writer modes)
# ----------------------------------------------------------------------


class CrashVerdict:
    """Outcome of one crash/recover/verify round."""

    __slots__ = (
        "fired", "stage", "acked", "matched_k", "generation",
        "report", "crashed",
    )

    def __init__(self, **kw: Any):
        for slot in self.__slots__:
            setattr(self, slot, kw.get(slot))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<verdict fired={self.fired} stage={self.stage} "
            f"acked={self.acked} k={self.matched_k} gen={self.generation}>"
        )


def _verify_recovery(
    directory: Path,
    ops: List[Tuple],
    acked: int,
    *,
    writer_generation: int,
    crashed: bool,
    stage: Optional[str],
    checkpoint_threshold: int,
) -> CrashVerdict:
    """Recover ``directory`` and audit it against the uncrashed twin."""
    recovered = Catalog()
    manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    report = manager.attach(recovered)
    got = catalog_state(recovered)
    # Probe op: acknowledged by the recovered incarnation, so it must
    # survive the *next* restart too (verified below).  Guards WAL LSN
    # monotonicity across recovery — a torn ``wal_reset`` used to
    # restart LSNs below the checkpoint, making the following recovery
    # silently skip everything this incarnation acknowledged.
    recovered.touch("probe_t")
    probe_epoch = recovered.epoch("probe_t")
    manager.close()

    # Differential parity: recovered state must be *some* prefix of the
    # twin's history, no shorter than the acked prefix and at most one
    # op beyond it (durable-but-unacked).
    twin = Catalog()
    for op in ops[:acked]:
        apply_op(twin, op)
    candidates = [acked]
    if crashed and acked < len(ops):
        candidates.append(acked + 1)
    matched_k = None
    for k in candidates:
        if k > acked:
            apply_op(twin, ops[k - 1])
        if catalog_state(twin) == got:
            matched_k = k
            break
    if matched_k is None:
        raise AssertionError(
            f"recovered state matches no legal prefix "
            f"(acked={acked}, stage={stage}, dir={directory}): "
            f"got epochs {got['epochs']!r}"
        )
    if report.generation <= writer_generation:
        raise AssertionError(
            f"generation did not advance across recovery "
            f"({writer_generation} -> {report.generation}, stage={stage})"
        )

    # Second incarnation: everything the recovered incarnation held —
    # including the freshly acknowledged probe op — must come back on
    # the next restart, and the generation must advance again.
    second = Catalog()
    second_manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    second_report = second_manager.attach(second)
    second_manager.close()
    second_state = catalog_state(second)
    expected_epochs = dict(got["epochs"])
    expected_epochs["probe_t"] = probe_epoch
    if (
        second_state["tables"] != got["tables"]
        or second_state["epochs"] != expected_epochs
    ):
        raise AssertionError(
            f"second restart lost acknowledged state "
            f"(stage={stage}, dir={directory}): expected epochs "
            f"{expected_epochs!r}, got {second_state['epochs']!r}"
        )
    if second_report.generation <= report.generation:
        raise AssertionError(
            f"generation did not advance across second recovery "
            f"({report.generation} -> {second_report.generation}, "
            f"stage={stage})"
        )
    return CrashVerdict(
        fired=crashed,
        stage=stage,
        acked=acked,
        matched_k=matched_k,
        generation=report.generation,
        report=report,
        crashed=crashed,
    )


# ----------------------------------------------------------------------
# In-process writer (SimulatedCrash)
# ----------------------------------------------------------------------


def run_inprocess_crash(
    base_dir: Union[str, Path],
    seed: int,
    *,
    n_ops: int = 24,
    checkpoint_threshold: int = 1024,
) -> CrashVerdict:
    """One seeded crash/recover/verify round, in-process.

    Builds the workload, arms a random durability fault
    (``action="raise"``), runs the writer until
    :class:`~repro.errors.SimulatedCrash` lands (or the workload
    completes if the chosen point is never reached), then recovers and
    audits.  Raises ``AssertionError`` on any invariant violation.
    """
    rng = random.Random(seed ^ 0x5EED)
    ops = build_workload(seed, n_ops)
    stage, at, cut = random_crash_spec(rng, n_ops)
    directory = Path(base_dir) / f"crash_{seed}"

    catalog = Catalog()
    manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    manager.attach(catalog)
    writer_generation = manager.generation

    injector = faults.FaultInjector().durability_crash(
        stage, at=at, cut=cut, action="raise"
    )
    acked = 0
    crashed = False
    try:
        with faults.inject(injector):
            for op in ops:
                apply_op(catalog, op)
                acked += 1
    except SimulatedCrash:
        crashed = True
    finally:
        # Like the dead process: no checkpoint, no graceful close.
        manager.abandon()

    return _verify_recovery(
        directory,
        ops,
        acked,
        writer_generation=writer_generation,
        crashed=crashed,
        stage=stage if crashed else None,
        checkpoint_threshold=checkpoint_threshold,
    )


# ----------------------------------------------------------------------
# Subprocess writer (real SIGKILL)
# ----------------------------------------------------------------------


def _subprocess_writer(
    directory: str,
    ack_path: str,
    seed: int,
    n_ops: int,
    stage: str,
    at: int,
    cut: Optional[int],
    checkpoint_threshold: int,
) -> None:
    """Child body: apply the workload, acking each op through an fsync'd
    file, with a ``kill`` durability fault armed.  Never returns
    normally when the fault fires — SIGKILL lands inside the WAL or
    checkpoint syscall path, exactly where a real crash would."""
    ops = build_workload(seed, n_ops)
    catalog = Catalog()
    manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    manager.attach(catalog)
    injector = faults.FaultInjector().durability_crash(
        stage, at=at, cut=cut, action="kill"
    )
    ack = open(ack_path, "a", buffering=1)
    with faults.inject(injector):
        for index, op in enumerate(ops):
            apply_op(catalog, op)
            # The commit acknowledgement a client would see: written and
            # fsync'd only after the op (and its WAL fsync) returned.
            ack.write(f"{index + 1}\n")
            ack.flush()
            os.fsync(ack.fileno())
    ack.close()
    manager.close()


def _read_acked(ack_path: Path) -> int:
    """Highest op count with a *complete* ack line (partial tail from a
    kill mid-write is ignored — conservative, like a torn client ack)."""
    try:
        data = ack_path.read_bytes()
    except FileNotFoundError:
        return 0
    acked = 0
    for line in data.split(b"\n")[:-1]:
        try:
            acked = max(acked, int(line))
        except ValueError:
            break
    return acked


def run_subprocess_crash(
    base_dir: Union[str, Path],
    seed: int,
    *,
    n_ops: int = 24,
    checkpoint_threshold: int = 1024,
    timeout_s: float = 30.0,
) -> CrashVerdict:
    """One seeded crash round with a real SIGKILL'd writer subprocess."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    rng = random.Random(seed ^ 0x1A11)
    ops = build_workload(seed, n_ops)
    stage, at, cut = random_crash_spec(rng, n_ops)
    directory = Path(base_dir) / f"kill_{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    ack_path = directory / "acks"

    proc = ctx.Process(
        target=_subprocess_writer,
        args=(
            str(directory), str(ack_path), seed, n_ops,
            stage, at, cut, checkpoint_threshold,
        ),
    )
    proc.start()
    proc.join(timeout_s)
    if proc.is_alive():  # pragma: no cover - hung writer
        proc.terminate()
        proc.join(5.0)
        raise AssertionError(f"writer subprocess hung (seed={seed})")
    crashed = proc.exitcode != 0  # -SIGKILL when the fault fired

    acked = _read_acked(ack_path)
    return _verify_recovery(
        directory,
        ops,
        acked,
        writer_generation=1,  # the child's attach produced generation 1
        crashed=crashed,
        stage=stage if crashed else None,
        checkpoint_threshold=checkpoint_threshold,
    )
