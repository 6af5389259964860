"""Crash-consistency harness: randomized kill injection + recovery audit.

The harness drives one deterministic, seeded catalog workload against a
WAL'd database directory, kills the writer at a fault point drawn from
:data:`~repro.testing.faults.FAULT_POINTS` — a torn ``wal_append`` (cut
at an arbitrary byte), a lost ``wal_fsync``, a torn ``checkpoint_write``,
a crash straddling ``checkpoint_replace``, ``checkpoint_reset``, or the
truncate-to-header window of ``wal_reset`` — recovers the directory,
and audits the recovered state against an **uncrashed twin** that
applied the same ops in plain memory (:func:`audit_round`, which the
failover harness shares):

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

import dataclasses
import multiprocessing
import os
import random
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

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
    "ROUNDS",
    "draw_round",
    "RoundVerdict",
    "apply_until_crash",
    "audit_round",
    "run_ack_writer",
    "run_inprocess_crash",
    "run_subprocess_crash",
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
# Rounds (shared with the failover harness)
# ----------------------------------------------------------------------

#: Round kind -> (RNG salt, stages its fault is drawn from, coin flips
#: drawn after the fault).  The kind also names the round's directory.
#: Failover rounds flip for sync-ack mode and, in-process, for letting
#: the stream drain before promotion.
ROUNDS = {
    "crash": (0x5EED, faults.DURABILITY_STAGES, 0),
    "kill": (0x1A11, faults.DURABILITY_STAGES, 0),
    "failover": (0xFA11, faults.ALL_STAGES, 2),
    "failover_kill": (0xF0F0, faults.PRIMARY_STAGES, 1),
}


def draw_round(kind: str, seed: int, n_ops: int = 24) -> Tuple:
    """A round's seeded draws: ``(stage, at, cut, *coins)``."""
    salt, stages, coins = ROUNDS[kind]
    rng = random.Random(seed ^ salt)
    return faults.draw_fault(rng, n_ops, stages) + tuple(
        rng.random() < 0.5 for _ in range(coins)
    )


@dataclasses.dataclass
class RoundVerdict:
    """Outcome of one crash or failover round (failover fills the rest)."""

    fired: bool
    stage: Optional[str]
    acked: int
    matched_k: int
    generation: int
    report: Any = None
    flushed: Optional[int] = None
    sync: Optional[bool] = None
    degraded: Optional[bool] = None
    term: Optional[int] = None
    fence_checked: bool = False


def apply_until_crash(catalog: Catalog, ops: List[Tuple]) -> Tuple[int, bool]:
    """Apply ``ops`` until one raises SimulatedCrash: ``(acked, crashed)``."""
    for acked, op in enumerate(ops):
        try:
            apply_op(catalog, op)
        except SimulatedCrash:
            return acked, True
    return len(ops), False


def audit_round(
    directory: Path,
    ops: List[Tuple],
    lo: int,
    hi: int,
    *,
    min_generation: int,
    checkpoint_threshold: int,
    context: str,
    while_open: Optional[Callable[[DurabilityManager], None]] = None,
) -> Tuple[int, Any]:
    """Recover ``directory`` and audit it against the uncrashed twin.

    The recovered catalog must equal the twin after ``ops[:k]`` for some
    ``lo <= k <= hi``, and recovery must reach ``min_generation``.  Then
    a probe write acknowledged by the recovered node (``while_open``
    runs after it, on the still-open manager) must survive the next
    restart, and the generation must advance again.  Returns the
    smallest matching ``k`` and the recovery report.
    """
    recovered = Catalog()
    manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    report = manager.attach(recovered)
    got = catalog_state(recovered)
    twin = Catalog()
    matched_k = None
    for k in range(hi + 1):
        if k:
            apply_op(twin, ops[k - 1])
        if k >= lo and catalog_state(twin) == got:
            matched_k = k
            break
    if matched_k is None:
        raise AssertionError(
            f"recovered state matches no legal prefix {lo}..{hi} of the "
            f"twin ({context}, dir={directory}): got epochs "
            f"{got['epochs']!r}"
        )
    if report.generation < min_generation:
        raise AssertionError(
            f"generation {report.generation} below {min_generation} "
            f"after recovery ({context})"
        )
    # Guards WAL LSN monotonicity across recovery: a torn ``wal_reset``
    # used to restart LSNs below the checkpoint, making the following
    # recovery silently skip everything this incarnation acknowledged.
    recovered.touch("probe_t")
    expected = dict(got, epochs={
        **got["epochs"], "probe_t": recovered.epoch("probe_t"),
    })
    if while_open is not None:
        while_open(manager)
    manager.close()

    second = Catalog()
    second_manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    second_report = second_manager.attach(second)
    second_manager.close()
    second_state = catalog_state(second)
    if second_state != expected:
        raise AssertionError(
            f"second restart lost acknowledged state ({context}, "
            f"dir={directory}): expected epochs {expected['epochs']!r}, "
            f"got {second_state['epochs']!r}"
        )
    if second_report.generation <= report.generation:
        raise AssertionError(
            f"generation did not advance across second recovery "
            f"({report.generation} -> {second_report.generation}, "
            f"{context})"
        )
    return matched_k, report


def _ack_writer(
    directory: str,
    ops: List[Tuple],
    fault: Tuple[str, int, Optional[int]],
    checkpoint_threshold: int,
    attach: Optional[Callable[[DurabilityManager], None]],
) -> None:
    """Child body: apply ``ops`` with a ``kill`` fault armed, acking each
    op through an fsync'd file.  Never returns normally when the fault
    fires — SIGKILL lands inside the WAL, checkpoint or replication
    syscall path, exactly where a real crash would."""
    catalog = Catalog()
    manager = DurabilityManager(
        directory, checkpoint_threshold=checkpoint_threshold
    )
    manager.attach(catalog)
    if attach is not None:
        attach(manager)
    stage, at, cut = fault
    injector = faults.FaultInjector().durability_crash(
        stage, at=at, cut=cut, action="kill"
    )
    with open(Path(directory) / "acks", "a") as ack, faults.inject(injector):
        for index, op in enumerate(ops):
            apply_op(catalog, op)
            # The commit acknowledgement a client would see: written and
            # fsync'd only after the op (and its WAL fsync; in sync mode,
            # the standby's flush) returned.
            ack.write(f"{index + 1}\n")
            ack.flush()
            os.fsync(ack.fileno())
    manager.close()


def run_ack_writer(
    directory: Path,
    ops: List[Tuple],
    fault: Tuple[str, int, Optional[int]],
    *,
    checkpoint_threshold: int,
    timeout_s: float,
    attach: Optional[Callable[[DurabilityManager], None]] = None,
) -> Tuple[bool, int]:
    """Fork a writer over ``directory`` (``attach`` runs on its manager
    first), wait for it, and return ``(killed, acked)``.  ``acked`` is
    the highest *complete* ack line: a partial tail from a kill
    mid-write is ignored, like a torn client ack."""
    directory.mkdir(parents=True, exist_ok=True)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    proc = ctx.Process(
        target=_ack_writer,
        args=(str(directory), ops, fault, checkpoint_threshold, attach),
    )
    proc.start()
    proc.join(timeout_s)
    if proc.is_alive():  # pragma: no cover - hung writer
        proc.terminate()
        proc.join(5.0)
        raise AssertionError(f"writer subprocess hung ({directory})")
    acked = 0
    ack_path = directory / "acks"
    lines = ack_path.read_bytes().split(b"\n") if ack_path.exists() else []
    for line in lines[:-1]:
        try:
            acked = max(acked, int(line))
        except ValueError:
            break
    return proc.exitcode != 0, acked  # -SIGKILL when the fault fired


# ----------------------------------------------------------------------
# The crash harness
# ----------------------------------------------------------------------


def _crash_verdict(
    directory: Path,
    ops: List[Tuple],
    acked: int,
    crashed: bool,
    stage: str,
    *,
    writer_generation: int,
    checkpoint_threshold: int,
) -> RoundVerdict:
    stage = stage if crashed else None
    k, report = audit_round(
        directory, ops, acked,
        acked + 1 if crashed and acked < len(ops) else acked,
        min_generation=writer_generation + 1,
        checkpoint_threshold=checkpoint_threshold,
        context=f"acked={acked}, stage={stage}",
    )
    return RoundVerdict(crashed, stage, acked, k, report.generation, report)


def run_inprocess_crash(
    base_dir: Union[str, Path],
    seed: int,
    *,
    n_ops: int = 24,
    checkpoint_threshold: int = 1024,
) -> RoundVerdict:
    """One seeded crash/recover/verify round, in-process.

    Builds the workload, arms a random durability fault
    (``action="raise"``), runs the writer until
    :class:`~repro.errors.SimulatedCrash` lands (or the workload
    completes if the chosen point is never reached), then recovers and
    audits.  Raises ``AssertionError`` on any invariant violation.
    """
    ops = build_workload(seed, n_ops)
    stage, at, cut = draw_round("crash", seed, n_ops)
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
    try:
        with faults.inject(injector):
            acked, crashed = apply_until_crash(catalog, ops)
    finally:
        # Like the dead process: no checkpoint, no graceful close.
        manager.abandon()
    return _crash_verdict(
        directory, ops, acked, crashed, stage,
        writer_generation=writer_generation,
        checkpoint_threshold=checkpoint_threshold,
    )


def run_subprocess_crash(
    base_dir: Union[str, Path],
    seed: int,
    *,
    n_ops: int = 24,
    checkpoint_threshold: int = 1024,
    timeout_s: float = 30.0,
) -> RoundVerdict:
    """One seeded crash round with a real SIGKILL'd writer subprocess."""
    ops = build_workload(seed, n_ops)
    fault = draw_round("kill", seed, n_ops)
    directory = Path(base_dir) / f"kill_{seed}"
    crashed, acked = run_ack_writer(
        directory, ops, fault, checkpoint_threshold=checkpoint_threshold,
        timeout_s=timeout_s,
    )
    return _crash_verdict(
        directory, ops, acked, crashed, fault[0],
        writer_generation=1,  # the child's attach produced generation 1
        checkpoint_threshold=checkpoint_threshold,
    )
