"""The durability manager: WAL + checkpointer + recovery for one database.

One :class:`DurabilityManager` owns one database directory::

    <dir>/CHECKPOINT   -- latest full-state snapshot (atomic install)
    <dir>/wal.log      -- append-only log of changes since the checkpoint

Attach it to a live engine with :meth:`attach` (or the
``durability_dir=`` knob on the minidb adapters): attach first runs
**recovery** — load the checkpoint, replay WAL frames with ``lsn``
beyond it, truncate any torn tail, restore snapshot epochs and UDF
definition versions, and advance the database *generation* — then wires
the logging hooks so every subsequent catalog mutation (register /
delta write / drop / touch) and UDF version bump appends a checksummed,
fsync'd WAL frame before the caller sees the operation return.

The generation is the cache-safety backstop: epochs restored from the
log are exact for every *acknowledged* write, but an epoch bump that was
sitting in memory when the process died was never logged — after
recovery that epoch value could be handed out again for *different*
data, resurrecting a result-cache entry keyed under it.  Recovery
therefore bumps a persisted generation counter that
:class:`~repro.cache.manager.CacheManager` folds into every result key,
making any pre-crash entry structurally unreachable.

Checkpointing is threshold-triggered inline (``checkpoint_threshold``
bytes of WAL) and optionally periodic (``checkpoint_interval_s`` starts
a daemon thread); both run the same atomic install + LSN-gated WAL
reset.  Lock order is always catalog -> manager: the catalog's mutation
lock is held around epoch-bump + WAL append, which is what guarantees
WAL order matches epoch order under concurrent writers.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ...errors import (
    NodeFencedError,
    RecoveryError,
    ReplicationProtocolError,
    WalPoisonedError,
)
from ...obs import METRICS, OBS
from ...obs import tracer as obs_tracer
from ..catalog import Delta
from ..table import Table
from . import records
from .checkpoint import (
    install_checkpoint_blob,
    read_checkpoint,
    write_checkpoint,
)
from .wal import WalRecord, WriteAheadLog, _crash_point, execute_crash

__all__ = ["DurabilityManager", "RecoveryReport", "attach_to_adapter"]

WAL_NAME = "wal.log"


@dataclass
class RecoveryReport:
    """What one recovery pass found and restored."""

    directory: str
    checkpoint_loaded: bool = False
    tables_restored: int = 0
    records_replayed: int = 0
    truncated_bytes: int = 0
    torn_tail: bool = False
    generation: int = 0
    last_lsn: int = 0
    udf_versions: int = 0
    duration_s: float = 0.0
    swept_temp_files: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<recovery {self.directory}: ckpt={self.checkpoint_loaded} "
            f"tables={self.tables_restored} replayed={self.records_replayed} "
            f"torn={self.torn_tail} gen={self.generation}>"
        )


class DurabilityManager:
    """Write-ahead logging, checkpointing, and recovery for one database."""

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        wal_enabled: bool = True,
        wal_fsync: bool = True,
        checkpoint_threshold: int = 4 << 20,
        checkpoint_interval_s: Optional[float] = None,
        replica: bool = False,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_enabled = wal_enabled
        self.wal_fsync = wal_fsync
        self.checkpoint_threshold = int(checkpoint_threshold)
        self.checkpoint_interval_s = checkpoint_interval_s
        #: Replica mode: the directory is a standby fed by
        #: :meth:`replicate_frame`/:meth:`replicate_checkpoint`.  The
        #: WAL holds the *primary's* frames verbatim (same LSNs), so
        #: recovery must not append anything of its own — no generation
        #: record, no logging hooks — or the log would diverge from the
        #: stream it resumes.
        self.replica = replica
        self._lock = threading.RLock()
        self.catalog: Optional[Any] = None
        self.registry: Optional[Any] = None
        self.wal: Optional[WriteAheadLog] = None
        #: Optional :class:`~repro.storage.replication.ReplicationPrimary`
        #: notified (and, in sync mode, waited on) after every append.
        self.replication: Optional[Any] = None
        #: Fail-stop state: an I/O failure on the append/checkpoint path
        #: or a fencing rejection makes every later write raise typed.
        self._poisoned: Optional[BaseException] = None
        self._fenced_term: Optional[int] = None
        self.generation = 0
        #: Persisted UDF definition versions: ``{name: (version, fp)}``.
        #: Maintained from recovery and from registry version listeners;
        #: the single source the checkpointer snapshots.
        self._udf_versions: Dict[str, Tuple[int, str]] = {}
        self.last_recovery: Optional[RecoveryReport] = None
        self.checkpoints = 0
        self._closed = False
        self._swept = self._sweep_temp_files()
        self._interval_thread: Optional[threading.Thread] = None
        self._interval_stop = threading.Event()

    # ------------------------------------------------------------------
    # Startup hygiene
    # ------------------------------------------------------------------

    def _sweep_temp_files(self) -> int:
        """Remove orphaned atomic-write temp files from crashed runs.

        ``.tmp`` files come from checkpoint installs, ``.spool`` files
        from replicated checkpoint images staged on a standby that died
        mid-install.
        """
        swept = 0
        for name in os.listdir(self.directory):
            if name.endswith(".tmp") or name.endswith(".spool"):
                try:
                    os.unlink(self.directory / name)
                    swept += 1
                except OSError:
                    pass
        return swept

    # ------------------------------------------------------------------
    # Attach + recovery
    # ------------------------------------------------------------------

    def attach(self, catalog: Any, registry: Optional[Any] = None) -> RecoveryReport:
        """Recover on-disk state into ``catalog``/``registry``, then wire
        the WAL hooks.  Not safe concurrently with writers — attach
        before serving traffic (adapters do this in their constructor).
        """
        with self._lock:
            if self.catalog is not None:
                raise RecoveryError(
                    f"durability manager for {str(self.directory)!r} is "
                    f"already attached"
                )
            report = self._recover(catalog, registry)
            self.catalog = catalog
            self.registry = registry
            if not self.replica:
                # A standby catalog must never log its own frames — its
                # WAL is a verbatim copy of the primary's stream, and
                # applying arrives through replicate_frame's restore
                # hooks, which bypass the logging hooks by design.
                catalog.durability = self
                if registry is not None:
                    registry.add_version_listener(self._on_udf_version)
            if self.checkpoint_interval_s is not None:
                self._start_interval_checkpointer()
        return report

    def _recover(self, catalog: Any, registry: Optional[Any]) -> RecoveryReport:
        start = time.perf_counter()
        report = RecoveryReport(directory=str(self.directory))
        report.swept_temp_files = self._swept
        with obs_tracer.maybe_trace("recovery", dir=str(self.directory)):
            try:
                ckpt_sp = obs_tracer.span_start(
                    "load_checkpoint", "durability"
                )
                state = read_checkpoint(self.directory)
                skip_lsn = 0
                if state is not None:
                    report.checkpoint_loaded = True
                    skip_lsn = int(state.get("lsn", 0))
                    self.generation = int(state.get("generation", 0))
                    for payload in state.get("tables", ()):
                        catalog.restore_table(records.decode_table(payload))
                        report.tables_restored += 1
                    for name, epoch in state.get("epochs", {}).items():
                        catalog.restore_epoch(name, int(epoch))
                    for name, entry in state.get("udfs", {}).items():
                        self._udf_versions[name] = (
                            int(entry["version"]), entry["fp"]
                        )
                if ckpt_sp is not None:
                    obs_tracer.span_end(
                        ckpt_sp, loaded=report.checkpoint_loaded,
                        tables=report.tables_restored,
                    )

                replay_sp = obs_tracer.span_start("replay_wal", "durability")
                self.wal = WriteAheadLog(
                    self.directory / WAL_NAME, fsync=self.wal_fsync
                )
                for record in self.wal.scan():
                    if record.lsn <= skip_lsn:
                        continue
                    self._apply(catalog, record)
                    report.records_replayed += 1
                report.truncated_bytes = self.wal.seal()
                report.torn_tail = report.truncated_bytes > 0
                if self.wal.last_lsn < skip_lsn:
                    # A crash inside WriteAheadLog.reset() (after the
                    # truncate, before the new header was durable) left
                    # a log whose LSNs restart below the checkpoint.
                    # Every surviving frame was already folded into the
                    # checkpoint, so re-reset at the checkpoint LSN:
                    # without this, post-recovery appends would get
                    # LSNs <= skip_lsn and the *next* recovery would
                    # silently skip acknowledged records.
                    self.wal.reset(skip_lsn)
                if report.torn_tail:
                    obs_tracer.add_event(
                        "wal_torn_tail", bytes=report.truncated_bytes
                    )
                if replay_sp is not None:
                    obs_tracer.span_end(
                        replay_sp, replayed=report.records_replayed,
                        truncated_bytes=report.truncated_bytes,
                    )

                # Generation: strictly advance past anything any
                # pre-crash in-memory state could have keyed caches
                # under, and persist the advance before serving queries.
                # Replica mode skips the bump: a standby serves no
                # queries (no caches to fence) and must not append
                # records of its own to a log that mirrors the
                # primary's LSN sequence.  Promotion re-runs recovery
                # in normal mode, which is where the bump lands.
                if self.replica:
                    catalog.generation = self.generation
                else:
                    self.generation += 1
                    catalog.generation = self.generation
                    if self.wal_enabled:
                        self.wal.append(
                            records.generation_record(self.generation)
                        )
                    else:
                        # Snapshot-only mode has no log to carry the
                        # bump: checkpoint immediately, otherwise a
                        # crash before the close()-time checkpoint
                        # recomputes the same generation next recovery
                        # and the cache-resurrection backstop silently
                        # fails.
                        self._checkpoint_locked(catalog)

                if registry is not None and self._udf_versions:
                    for name, (version, fp) in self._udf_versions.items():
                        registry.restore_version(name, version, fp)
                report.udf_versions = len(self._udf_versions)
                report.generation = self.generation
                report.last_lsn = self.wal.last_lsn
            finally:
                report.duration_s = time.perf_counter() - start
        if OBS.metrics:
            METRICS.counter(
                "repro_recovery_total",
                outcome="torn" if report.torn_tail else "clean",
            ).inc()
            METRICS.counter("repro_recovery_replayed_records_total").inc(
                report.records_replayed
            )
            METRICS.counter("repro_recovery_truncated_bytes_total").inc(
                report.truncated_bytes
            )
            METRICS.histogram("repro_recovery_seconds").observe(
                report.duration_s
            )
        self.last_recovery = report
        return report

    def _apply(self, catalog: Any, record: WalRecord) -> None:
        payload = record.payload
        op = payload.get("op")
        if op == "table":
            catalog.restore_table(
                records.decode_table(payload), epoch=int(payload["epoch"])
            )
        elif op in records.DELTA_OPS:
            name = payload["name"]
            catalog.write(
                name, records.decode_delta(payload, catalog.get(name)),
                epoch=int(payload["epoch"]),
            )
        elif op == "drop":
            catalog.restore_drop(payload["name"], epoch=int(payload["epoch"]))
        elif op == "touch":
            catalog.restore_epoch(payload["name"], int(payload["epoch"]))
        elif op == "udf":
            self._udf_versions[payload["name"]] = (
                int(payload["version"]), payload["fp"]
            )
        elif op == "gen":
            self.generation = max(self.generation, int(payload["generation"]))
        else:
            raise RecoveryError(
                f"unknown WAL record op {op!r} at lsn {record.lsn}"
            )

    # ------------------------------------------------------------------
    # Logging hooks (called by Catalog under its mutation lock, and by
    # the registry's version listener)
    # ------------------------------------------------------------------

    def log_table(self, table: Table, epoch: int) -> None:
        self._append(records.table_record(table, epoch))

    def log_delta(self, name: str, delta: Delta, epoch: int) -> None:
        self._append(records.delta_record(name, delta, epoch))

    def log_drop(self, name: str, epoch: int) -> None:
        self._append(records.drop_record(name, epoch))

    def log_touch(self, name: str, epoch: int) -> None:
        self._append(records.touch_record(name, epoch))

    def _on_udf_version(self, name: str, version: int) -> None:
        registry = self.registry
        fp = registry.fingerprint_of(name) if registry is not None else ""
        # Catalog -> manager lock order, matching log_table/checkpoint():
        # the registry listener fires without the catalog lock, but the
        # threshold checkpoint this append can trigger iterates the
        # catalog, so the catalog mutation lock must be taken first.
        catalog = self.catalog
        lock = catalog._lock if catalog is not None else self._lock
        with lock:
            with self._lock:
                self._udf_versions[name] = (version, fp or "")
            self._append(records.udf_record(name, version, fp or ""))

    def _check_writable(self) -> None:
        """Raise typed if this manager may no longer accept writes.

        Fencing outranks poisoning: a fenced node must report *why* it
        is dead even if its disk also failed on the way down.
        """
        if self._fenced_term is not None:
            raise NodeFencedError(
                f"node fenced: a standby was promoted at term "
                f"{self._fenced_term}; this manager can never accept "
                f"writes again",
                local_term=None,
                remote_term=self._fenced_term,
            )
        if self._poisoned is not None:
            raise WalPoisonedError(
                path=str(self.directory), cause=self._poisoned
            )

    def fence(self, term: int) -> None:
        """Permanently refuse writes: a peer was promoted at ``term``.

        Called when a handshake comes back REJECT — the cluster has
        moved on, and anything this node persisted after the promotion
        point must never be acknowledged or shipped.
        """
        with self._lock:
            self._fenced_term = int(term)
        if OBS.metrics:
            METRICS.counter("repro_repl_fenced_total").inc()

    def _append(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            if self._closed or self.wal is None or not self.wal_enabled:
                return
            self._check_writable()
            try:
                lsn = self.wal.append(payload)
            except WalPoisonedError as exc:
                self._poisoned = exc.__cause__ or exc
                raise
            repl = self.replication
            if repl is not None:
                # May block (sync-ack mode) while holding the manager
                # and catalog locks; the sender threads never take
                # either lock, so this cannot deadlock.
                repl.after_append(lsn)
            if self.wal.size_bytes >= self.checkpoint_threshold:
                self._checkpoint_locked()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> bool:
        """Snapshot full state, install atomically, truncate the WAL.

        Returns False when nothing is attached yet.  Safe to call from
        any thread: the catalog mutation lock is taken first (the same
        order the write path uses), so no append can interleave between
        the snapshot and the WAL reset.
        """
        catalog = self.catalog
        if catalog is None:
            return False
        with catalog._lock:
            with self._lock:
                if self._closed or self.wal is None:
                    return False
                self._checkpoint_locked()
        return True

    def _checkpoint_locked(self, catalog: Optional[Any] = None) -> None:
        # ``catalog`` is passed explicitly only from _recover, where the
        # manager is not yet attached (self.catalog is still None).
        catalog = catalog if catalog is not None else self.catalog
        self._check_writable()
        start = time.perf_counter() if OBS.metrics else 0.0
        state = {
            "lsn": self.wal.last_lsn,
            "generation": self.generation,
            "tables": [records.encode_table(t) for t in catalog],
            "epochs": dict(catalog._epochs),
            "udfs": {
                name: {"version": version, "fp": fp}
                for name, (version, fp) in self._udf_versions.items()
            },
        }
        try:
            write_checkpoint(self.directory, state, fsync=self.wal_fsync)
            spec = _crash_point("checkpoint_reset")
            if spec is not None:
                execute_crash(spec)
            self.wal.reset(state["lsn"])
        except WalPoisonedError as exc:
            self._poisoned = exc.__cause__ or exc
            raise
        except OSError as exc:
            # A torn checkpoint install can leave in-memory state ahead
            # of what any snapshot records: fail stop, same as a WAL
            # append failure, so no later checkpoint can persist
            # unacknowledged divergence.
            self._poisoned = exc
            raise WalPoisonedError(
                path=str(self.directory), cause=exc
            ) from exc
        self.checkpoints += 1
        if OBS.metrics:
            METRICS.counter("repro_checkpoints_total").inc()
            METRICS.histogram("repro_checkpoint_seconds").observe(
                time.perf_counter() - start
            )
        if OBS.tracing:
            obs_tracer.add_event(
                "checkpoint", lsn=state["lsn"], tables=len(state["tables"])
            )

    # ------------------------------------------------------------------
    # Standby apply paths (replica mode only)
    # ------------------------------------------------------------------

    def replicate_frame(
        self, lsn: int, frame: bytes, payload: Dict[str, Any]
    ) -> bool:
        """Append a shipped WAL frame verbatim and apply its operation.

        The frame's CRC, embedded LSN, and continuity against the local
        log are all re-verified by :meth:`WriteAheadLog.append_frame`
        before a byte lands.  Duplicate resends (``lsn`` at or below the
        local tail, which happens when the primary restarts a stream
        from a conservative cursor) are acknowledged without effect.
        Returns True when the frame advanced local state.
        """
        if not self.replica:
            raise ReplicationProtocolError(
                "replicate_frame on a non-replica manager"
            )
        catalog = self.catalog
        if catalog is None:
            raise ReplicationProtocolError(
                "replica manager is not attached"
            )
        with catalog._lock:
            with self._lock:
                if self._closed or self.wal is None:
                    raise ReplicationProtocolError(
                        "replica manager is closed"
                    )
                self._check_writable()
                if lsn <= self.wal.last_lsn:
                    return False
                try:
                    self.wal.append_frame(lsn, frame)
                except WalPoisonedError as exc:
                    self._poisoned = exc.__cause__ or exc
                    raise
                self._apply(catalog, WalRecord(lsn=lsn, payload=payload))
                if self.wal.size_bytes >= self.checkpoint_threshold:
                    self._checkpoint_locked()
        return True

    def replicate_checkpoint(self, blob: bytes) -> int:
        """Install a shipped checkpoint image and rebuild from it.

        Used when the standby's cursor fell behind the primary's WAL
        ``base_lsn`` (the primary checkpointed and reset its log, so the
        frames the standby needs no longer exist).  The image replaces
        catalog state wholesale — tables not in the image were dropped
        on the primary — and the local WAL resets to the image's LSN so
        the next shipped frame is contiguous.  Returns that LSN.
        """
        if not self.replica:
            raise ReplicationProtocolError(
                "replicate_checkpoint on a non-replica manager"
            )
        catalog = self.catalog
        if catalog is None:
            raise ReplicationProtocolError(
                "replica manager is not attached"
            )
        with catalog._lock:
            with self._lock:
                if self._closed or self.wal is None:
                    raise ReplicationProtocolError(
                        "replica manager is closed"
                    )
                self._check_writable()
                try:
                    state = install_checkpoint_blob(
                        self.directory, blob, fsync=self.wal_fsync
                    )
                except OSError as exc:
                    self._poisoned = exc
                    raise WalPoisonedError(
                        path=str(self.directory), cause=exc
                    ) from exc
                lsn = int(state.get("lsn", 0))
                if lsn < self.wal.last_lsn:
                    raise ReplicationProtocolError(
                        f"shipped checkpoint lsn {lsn} is behind the "
                        f"standby's applied lsn {self.wal.last_lsn}"
                    )
                for name in list(catalog.names()):
                    catalog.restore_drop(name)
                for payload in state.get("tables", ()):
                    catalog.restore_table(records.decode_table(payload))
                for name, epoch in state.get("epochs", {}).items():
                    catalog.restore_epoch(name, int(epoch))
                self._udf_versions = {
                    name: (int(entry["version"]), entry["fp"])
                    for name, entry in state.get("udfs", {}).items()
                }
                self.generation = max(
                    self.generation, int(state.get("generation", 0))
                )
                catalog.generation = self.generation
                try:
                    self.wal.reset(lsn)
                except WalPoisonedError as exc:
                    self._poisoned = exc.__cause__ or exc
                    raise
        return lsn

    def _start_interval_checkpointer(self) -> None:
        def loop() -> None:
            while not self._interval_stop.wait(self.checkpoint_interval_s):
                try:
                    self.checkpoint()
                except Exception:  # pragma: no cover - keep the loop alive
                    if OBS.metrics:
                        METRICS.counter(
                            "repro_checkpoint_failures_total"
                        ).inc()

        self._interval_thread = threading.Thread(
            target=loop, name="repro-checkpointer", daemon=True
        )
        self._interval_thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the checkpointer and close the WAL.

        In snapshot-only mode (``wal_enabled=False``) a final checkpoint
        persists the state that was never logged; with the WAL on, the
        log alone is sufficient and recovery replays it.
        """
        self._interval_stop.set()
        thread = self._interval_thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._interval_thread = None
        repl = self.replication
        if repl is not None:
            self.replication = None
            try:
                repl.close()
            except Exception:
                pass
        if not self.wal_enabled and self.catalog is not None and not self._closed:
            try:
                self.checkpoint()
            except Exception:
                pass
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.wal is not None:
                self.wal.close()

    def abandon(self) -> None:
        """Drop the manager as a crashed process would: no checkpoint,
        no flush, just release the descriptor (in-process harness)."""
        self._interval_stop.set()
        repl = self.replication
        if repl is not None:
            self.replication = None
            try:
                repl.abandon()
            except Exception:
                pass
        with self._lock:
            self._closed = True
            if self.wal is not None:
                self.wal.abandon()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_to_adapter(
    adapter: Any, directory: Union[str, Path], **knobs: Any
) -> RecoveryReport:
    """Create a manager for ``directory`` and attach it to an adapter.

    Recovers into the adapter's catalog and registry, and stores the
    manager as ``adapter.durability`` so
    :meth:`~repro.engines.base.EngineAdapter.close` tears it down.
    """
    manager = DurabilityManager(directory, **knobs)
    report = manager.attach(adapter.catalog, adapter.registry)
    adapter.durability = manager
    return report
