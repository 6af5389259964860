"""Failover chaos harness: kill the primary, promote, audit everything.

Extends the crash-consistency harness (:mod:`repro.testing.crash`) from
one node to a replicated pair.  Each round runs the same deterministic
seeded workload against a primary that streams its WAL to a live
standby, kills the primary at a fault point drawn from
:data:`~repro.testing.faults.FAULT_POINTS` — any durability stage *or*
a replication stage (``repl_send`` torn at an arbitrary wire byte,
``repl_handshake``, ``repl_install`` on the standby, ``repl_promote``
inside promotion itself) — then promotes the standby and audits the
promoted directory with the crash harness's :func:`~repro.testing.crash.
audit_round` plus the replication checks:

* **Prefix consistency (zero corruption / zero resurrection)** — the
  promoted catalog must equal the twin at ``ops[:k]`` for some ``k``
  with ``k <= acked + 1``: nothing the client never submitted, nothing
  torn, nothing resurrected.  Because ops map 1:1 onto WAL records
  (the generation record is LSN 1, op *i* is LSN *i+1*), ``k`` is also
  checked **exactly** against the standby's flushed LSN — the lag
  accounting cannot drift from the truth.
* **Zero acked loss (sync mode)** — when the primary ran in sync-ack
  mode and never degraded (no ``repl.degraded`` marker / event),
  ``k >= acked``: every acknowledged write survives the failover.
* **Fencing** — after promotion the old primary is revived and pointed
  back at the cluster: its handshake must be REJECTed, its manager must
  raise :class:`~repro.errors.NodeFencedError` on the next write, and a
  *second* revival must arrive pre-fenced from the persisted
  ``fenced_by`` meta without needing a connection at all.
* **Post-failover durability** — a probe write acknowledged by the
  promoted node survives its next restart, and the generation advances
  across both recoveries (pre-failover cache entries are unreachable).

Two writer modes, as in the crash harness: in-process
(:class:`~repro.errors.SimulatedCrash`, cheap enough for hundreds of
rounds) and a forked subprocess writer the fault point SIGKILLs
mid-syscall while the standby keeps serving in the parent.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import List, Tuple, Union

from ..errors import NodeFencedError, ReplicationError, SimulatedCrash
from ..storage.catalog import Catalog
from ..storage.durability import DurabilityManager
from ..storage.replication import (
    DEGRADE_MARKER_NAME,
    ReplicationPrimary,
    ReplicationStandby,
)
from . import faults
from .crash import (
    RoundVerdict,
    apply_op,
    apply_until_crash,
    audit_round,
    build_workload,
    draw_round,
    run_ack_writer,
)

__all__ = ["run_inprocess_failover", "run_subprocess_failover"]


def _wait_for(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _replicate(address, sync: bool, manager: DurabilityManager):
    """Make ``manager`` a primary streaming to the standby at ``address``."""
    manager.replication = ReplicationPrimary(
        manager, address, sync=sync, ack_timeout_s=0.25
    )
    return manager.replication


def _audit_failover(
    round_dir: Path,
    ops: List[Tuple],
    acked: int,
    flushed: int,
    *,
    fired: bool,
    stage: str,
    sync: bool,
    degraded: bool,
    term: int,
    checkpoint_threshold: int,
    fence_check: bool,
) -> RoundVerdict:
    """Open the promoted directory as a primary and audit everything."""
    stage = stage if fired else None
    context = f"acked={acked}, flushed={flushed}, stage={stage}"
    k, report = audit_round(
        round_dir / "standby",
        ops,
        # Zero resurrection: the standby only ever receives durable
        # frames, and the primary's durable tail leads its acked tail by
        # at most one op.
        0,
        min(acked + 1, len(ops)),
        # The generation record the primary logged at LSN 1 reached the
        # standby iff flushed >= 1; promotion must advance past it.
        min_generation=2 if flushed >= 1 else 1,
        checkpoint_threshold=checkpoint_threshold,
        context=context,
        while_open=(
            functools.partial(_verify_fencing, round_dir, term)
            if fence_check else None
        ),
    )
    # Op i is LSN i+1: the prefix must be exactly as long as the
    # standby's flushed LSN claims.
    if k != max(0, flushed - 1):
        raise AssertionError(
            f"standby lag accounting drifted from reality: promoted "
            f"state is prefix {k} but flushed LSN {flushed} promises "
            f"prefix {max(0, flushed - 1)} ({context})"
        )
    if sync and not degraded and k < acked:
        raise AssertionError(
            f"sync-ack mode lost an acknowledged write: k={k} with no "
            f"degrade event ({context})"
        )
    return RoundVerdict(
        fired, stage, acked, k, report.generation, report,
        flushed=flushed, sync=sync, degraded=degraded, term=term,
        fence_checked=fence_check,
    )


def _verify_fencing(
    round_dir: Path, term: int, promoted_manager: DurabilityManager
) -> None:
    """The old primary must be structurally incapable of rejoining.

    Chain the promoted node to a fresh standby (which durably adopts
    the promoted term), then revive the old primary against that
    standby: the handshake must REJECT it, its next write must raise
    :class:`NodeFencedError`, and a second revival must come up
    pre-fenced straight from its persisted meta.
    """
    # min_term closes a harness-only race: without it the old primary
    # could land its handshake before the promoted node's and be
    # accepted at term 0 as the standby's first lineage.
    s2 = ReplicationStandby(round_dir / "s2", min_term=term)
    new_primary = ReplicationPrimary(promoted_manager, s2.address)
    promoted_manager.replication = new_primary
    try:
        if not _wait_for(lambda: s2.term >= term and any(
            t["connected"] for t in new_primary.status()["targets"].values()
        )):
            raise AssertionError(
                f"promoted node never connected to its new standby "
                f"(term={term}, s2.term={s2.term})"
            )
        # The second revival must hold the fence with no network at all:
        # the persisted fenced_by meta re-poisons the manager before a
        # single write can land.
        for how, wait_s in (("on reconnect", 5.0), ("from its meta", 0.0)):
            old_catalog = Catalog()
            old_manager = DurabilityManager(round_dir / "primary")
            old_manager.attach(old_catalog)
            old_primary = ReplicationPrimary(old_manager, s2.address)
            old_manager.replication = old_primary
            try:
                if not _wait_for(
                    lambda: old_primary.fenced_by is not None, wait_s
                ):
                    raise AssertionError(
                        f"revived old primary was not fenced {how}"
                    )
                if old_primary.fenced_by < term:
                    raise AssertionError(
                        f"old primary fenced {how} by term "
                        f"{old_primary.fenced_by} < promoted term {term}"
                    )
                try:
                    apply_op(old_catalog, ("touch", "orders"))
                except NodeFencedError:
                    pass
                else:
                    raise AssertionError(
                        f"old primary fenced {how} acknowledged a write"
                    )
            finally:
                old_manager.abandon()
    finally:
        promoted_manager.replication = None
        new_primary.close()
        s2.close()


def run_inprocess_failover(
    base_dir: Union[str, Path],
    seed: int,
    *,
    n_ops: int = 24,
    checkpoint_threshold: int = 1024,
    fence_check: bool = True,
) -> RoundVerdict:
    """One seeded kill/promote/verify round, in-process."""
    ops = build_workload(seed, n_ops)
    stage, at, cut, sync, drain = draw_round("failover", seed, n_ops)
    round_dir = Path(base_dir) / f"failover_{seed}"

    def restart_standby(port: int = 0) -> ReplicationStandby:
        # On the old port, the primary's reconnect loop finds the new
        # incarnation and the stream resumes from its sealed tail.
        # Lingering accepted sockets can hold the port briefly; retry,
        # then fall back to an ephemeral port (the primary simply never
        # reconnects in that case).
        deadline = time.monotonic() + 2.0
        while True:
            try:
                return ReplicationStandby(
                    round_dir / "standby", port=port,
                    checkpoint_threshold=checkpoint_threshold,
                )
            except OSError:
                if not port:
                    raise
                if time.monotonic() >= deadline:
                    port = 0
                time.sleep(0.05)

    standby = restart_standby()
    catalog = Catalog()
    manager = DurabilityManager(
        round_dir / "primary", checkpoint_threshold=checkpoint_threshold
    )
    manager.attach(catalog)
    primary = _replicate(standby.address, sync, manager)
    injector = faults.FaultInjector().durability_crash(
        stage, at=at, cut=cut, action="raise"
    )
    with faults.inject(injector):
        acked, fired = apply_until_crash(catalog, ops)
        # A fault may have killed the *standby* instead (the stages are
        # shared: its replica manager runs the same WAL code).  Restart
        # it — recovery seals the torn tail and sweeps spool files —
        # and let the live primary re-stream to it.
        if standby.crashed:
            standby = restart_standby(standby.address[1])
        # Half the rounds promote at whatever lag exists right now; the
        # other half let the stream drain first, covering both the
        # laggy and the caught-up promotion paths.
        if drain and not fired:
            tail = manager.wal.last_lsn if manager.wal is not None else 0
            _wait_for(lambda: standby.flushed_lsn >= tail, timeout_s=1.0)
        degraded = primary.degraded
        manager.abandon()  # takes primary (the sender fleet) down with it

        # Promotion under an armed fault: repl_promote dies after the
        # listener closes but before the bumped term is durable — the
        # next incarnation must come back unpromoted and retry cleanly.
        # The standby can also simulated-crash in a serve thread right
        # up to the promotion point, so retry around that too.  Once
        # the primary is dead the standby's port no longer matters.
        term = -1
        for _ in range(3):
            try:
                term = standby.promote()
                break
            except SimulatedCrash:
                fired = True
                standby.abandon()
            except ReplicationError:
                # promote() refuses a closed standby: a serve thread
                # simulated-crashed it after our aliveness check.
                if not _wait_for(lambda: standby.crashed, timeout_s=1.0):
                    raise
            standby = restart_standby()
        if term < 0:
            raise AssertionError("standby promotion did not converge")
    # Faults on the replication stages fire in the sender / serve
    # threads, not the writer: the injector's counter sees them all.
    return _audit_failover(
        round_dir, ops, acked, standby.flushed_lsn,
        fired=fired or injector.fired > 0, stage=stage, sync=sync,
        degraded=degraded, term=term,
        checkpoint_threshold=checkpoint_threshold, fence_check=fence_check,
    )


def run_subprocess_failover(
    base_dir: Union[str, Path],
    seed: int,
    *,
    n_ops: int = 24,
    checkpoint_threshold: int = 1024,
    timeout_s: float = 30.0,
    fence_check: bool = True,
) -> RoundVerdict:
    """One seeded round with a real SIGKILL'd primary subprocess.

    The child acks each op the way a client observes commits — in sync
    mode, therefore, only after the standby flush (or a degrade)."""
    ops = build_workload(seed, n_ops)
    stage, at, cut, sync = draw_round("failover_kill", seed, n_ops)
    round_dir = Path(base_dir) / f"failover_kill_{seed}"
    standby = ReplicationStandby(
        round_dir / "standby", checkpoint_threshold=checkpoint_threshold
    )
    try:
        fired, acked = run_ack_writer(
            round_dir / "primary", ops, (stage, at, cut),
            checkpoint_threshold=checkpoint_threshold, timeout_s=timeout_s,
            attach=functools.partial(_replicate, standby.address, sync),
        )
    except AssertionError:  # pragma: no cover - hung writer
        standby.close()
        raise
    # Everything the dead primary put on the wire is in the kernel
    # buffer; give the standby's serve thread a moment to drain it
    # (wait until the flushed LSN stops moving).
    deadline = time.monotonic() + 2.0
    last = standby.flushed_lsn
    settled_at = time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.02)
        current = standby.flushed_lsn
        if current != last:
            last = current
            settled_at = time.monotonic()
        elif time.monotonic() - settled_at > 0.15:
            break
    degraded = (round_dir / "primary" / DEGRADE_MARKER_NAME).exists()
    term = standby.promote()
    return _audit_failover(
        round_dir, ops, acked, standby.flushed_lsn,
        fired=fired, stage=stage, sync=sync, degraded=degraded, term=term,
        checkpoint_threshold=checkpoint_threshold, fence_check=fence_check,
    )
