"""The hot standby: receive, verify, apply, acknowledge, promote.

A :class:`ReplicationStandby` owns one database directory in replica
mode: a listener accepts primary connections, the handshake enforces
the fencing invariant (see :mod:`.fence`), and every FRAME/CHECKPOINT
message is applied through the replica
:class:`~repro.storage.durability.manager.DurabilityManager` — the same
restore hooks and delta-apply path recovery uses, so standby state is by
construction a state recovery could have produced.  After each apply
the standby ACKs its flushed LSN; sync-mode primaries release commits
against that watermark.

Promotion is a restart in disguise: ``promote()`` stops the listener,
fsyncs the bumped fencing term, and closes the replica manager.  The
caller then re-opens the directory as a normal primary — ordinary
recovery replays the log, bumps the durability generation (fencing any
pre-failover cache entries), and the node serves.  There is no special
"promoted state" to get wrong; the only promotion-specific bytes are
the term in ``node.meta``.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ...errors import (
    CheckpointError,
    ReplicationError,
    ReplicationProtocolError,
    SimulatedCrash,
    WalCorruptionError,
)
from ...obs import METRICS, OBS
from ..catalog import Catalog
from ..durability.manager import DurabilityManager
from ..durability.wal import _crash_point, execute_crash
from . import protocol
# _crash_point/execute_crash: the repl_promote window below; stream-side
# crash points live on the primary (the harness kills primaries).
from .fence import load_node_meta, store_node_meta

__all__ = ["ReplicationStandby"]


class ReplicationStandby:
    """One standby node: a replica directory plus its stream listener."""

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        min_term: int = 0,
        wal_fsync: bool = True,
        checkpoint_threshold: int = 4 << 20,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = load_node_meta(self.directory)
        if meta is None:
            self.node_id = f"standby-{uuid.uuid4().hex[:12]}"
            self.term = int(min_term)
            store_node_meta(
                self.directory, node=self.node_id, term=self.term,
                role="standby", fsync=wal_fsync,
            )
        else:
            if meta.get("role") == "primary":
                raise ReplicationError(
                    f"{str(self.directory)!r} is a primary directory "
                    f"(promoted or original); refusing to demote it to a "
                    f"standby implicitly"
                )
            self.node_id = str(meta["node"])
            self.term = max(int(meta["term"]), int(min_term))
            if self.term != int(meta["term"]):
                store_node_meta(
                    self.directory, node=self.node_id, term=self.term,
                    role="standby", fsync=wal_fsync,
                )
        self._wal_fsync = wal_fsync
        self.catalog = Catalog()
        self.manager = DurabilityManager(
            self.directory,
            wal_fsync=wal_fsync,
            checkpoint_threshold=checkpoint_threshold,
            replica=True,
        )
        self.manager.attach(self.catalog)
        self._lock = threading.RLock()
        self._closed = False
        self._promoted = False
        #: Set when an injected fault simulated this node's death; the
        #: harness restarts the directory as a fresh incarnation.
        self.crashed = False
        #: Node id of the primary whose stream we last accepted at the
        #: current term; a *different* node presenting an equal term is
        #: rejected (two claimants, neither promoted over the other).
        self._accepted_node: Optional[str] = None
        #: Primary's tail LSN as of the last message (for lag).
        self.primary_last_lsn = self.manager.wal.last_lsn
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # Restart-on-the-same-port is the normal standby lifecycle (the
        # primary's reconnect loop only knows one address).  Sockets
        # accepted by the previous incarnation can hold the port for a
        # moment after its close; retry briefly before giving up.
        deadline = time.monotonic() + 2.0
        while True:
            try:
                self._listener.bind((host, port))
                break
            except OSError:
                if port == 0 or time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        self._listener.listen(4)
        self.address = self._listener.getsockname()
        self._threads: list = []
        #: Live accepted sockets; shutdown closes them so serve threads
        #: blocked in recv release the port immediately.
        self._conns: set = set()
        accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-standby-{self.address[1]}",
            daemon=True,
        )
        self._threads.append(accept_thread)
        accept_thread.start()

    # ------------------------------------------------------------------
    # Stream serving
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                protocol.REPL_IO_CALLS["accept"] += 1
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed (shutdown or promotion)
            if self._closed or self._promoted:
                conn.close()
                return
            with self._lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"repro-standby-conn-{self.address[1]}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(30.0)
            self._serve_inner(conn)
        except (OSError, ReplicationError, WalCorruptionError,
                CheckpointError):
            # A dead peer, a torn stream, or a frame that failed
            # verification: drop the connection.  The primary
            # reconnects and resumes from our flushed tail; nothing
            # unverified was applied.
            pass
        except SimulatedCrash:
            # The in-process harness crashed this standby mid-apply (a
            # torn frame append, a checkpoint install).  A real process
            # would be gone — and continuing to use a WAL whose
            # in-memory tail no longer matches the file would
            # double-write the torn frame on resend and corrupt later
            # recovery.  Die wholesale; the harness restarts the node
            # and recovery seals the torn tail (and sweeps any .spool
            # leftovers).
            self._simulate_crash()
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _serve_inner(self, conn: socket.socket) -> None:
        message = protocol.recv_message(conn)
        if message is None:
            return
        kind, body = message
        if kind != protocol.HELLO:
            raise ReplicationProtocolError(
                f"expected HELLO, got {kind!r}"
            )
        hello = protocol.decode_json(body, kind="HELLO")
        remote_node = str(hello.get("node"))
        remote_term = int(hello.get("term", 0))
        with self._lock:
            if self._closed or self._promoted:
                protocol.send_json(conn, protocol.REJECT, {
                    "term": self.term,
                    "reason": "standby promoted" if self._promoted
                    else "standby closed",
                })
                return
            if remote_term < self.term or (
                remote_term == self.term
                and self._accepted_node is not None
                and remote_node != self._accepted_node
            ):
                # The fencing rejection: this claimant's lineage is
                # stale (or it ties a different claimant we already
                # follow).  It must never acknowledge another write.
                if OBS.metrics:
                    METRICS.counter(
                        "repro_repl_reject_total", reason="stale_term"
                    ).inc()
                protocol.send_json(conn, protocol.REJECT, {
                    "term": self.term,
                    "reason": f"stale term {remote_term} < {self.term}",
                })
                return
            if remote_term > self.term or self._accepted_node is None:
                # Adopt the primary's lineage *durably* before a single
                # frame flows: if we are later promoted, our bumped
                # term must exceed this primary's even across our own
                # crashes.
                self.term = remote_term
                self._accepted_node = remote_node
                store_node_meta(
                    self.directory, node=self.node_id, term=self.term,
                    role="standby", fsync=self._wal_fsync,
                )
            start_lsn = self.manager.wal.last_lsn
            protocol.send_json(conn, protocol.WELCOME, {
                "node": self.node_id,
                "term": self.term,
                "start_lsn": start_lsn,
            })
        self._stream_loop(conn)

    def _stream_loop(self, conn: socket.socket) -> None:
        u64 = protocol.U64
        while True:
            if self._closed or self._promoted:
                return
            try:
                message = protocol.recv_message(conn)
            except socket.timeout:
                continue
            if message is None:
                return
            kind, body = message
            if kind == protocol.FRAME:
                if len(body) < 2 * u64.size:
                    raise ReplicationProtocolError("short FRAME body")
                (primary_last,) = u64.unpack_from(body, 0)
                (lsn,) = u64.unpack_from(body, u64.size)
                frame = body[2 * u64.size:]
                self.manager.replicate_frame(
                    lsn, frame,
                    self._decode_frame_payload(frame),
                )
            elif kind == protocol.CHECKPOINT:
                if len(body) < u64.size:
                    raise ReplicationProtocolError("short CHECKPOINT body")
                (primary_last,) = u64.unpack_from(body, 0)
                self.manager.replicate_checkpoint(body[u64.size:])
            else:
                raise ReplicationProtocolError(
                    f"unexpected stream message kind {kind!r}"
                )
            self.primary_last_lsn = max(primary_last, self.manager.wal.last_lsn)
            if OBS.metrics:
                METRICS.counter(
                    "repro_repl_stream_bytes_total", direction="rx"
                ).inc(len(body))
                METRICS.gauge(
                    "repro_repl_lag_records", role="standby",
                    node=self.node_id,
                ).set(self.lag_records)
            protocol.send_message(
                conn, protocol.ACK, u64.pack(self.manager.wal.last_lsn)
            )

    @staticmethod
    def _decode_frame_payload(frame: bytes) -> Dict[str, Any]:
        """Decode the JSON payload out of a raw frame for _apply.

        Structural/CRC validation happens again inside
        ``append_frame``; this only needs the dict, and tolerates
        nothing — a frame whose JSON fails to parse is corrupt.
        """
        import json
        import struct
        header = struct.Struct("<IIQ")
        if len(frame) < header.size:
            raise ReplicationProtocolError("frame shorter than its header")
        try:
            return json.loads(frame[header.size:].decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ReplicationProtocolError(
                f"frame payload undecodable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def flushed_lsn(self) -> int:
        """Highest LSN applied and flushed locally."""
        return self.manager.wal.last_lsn if self.manager.wal else 0

    @property
    def lag_records(self) -> int:
        """Records the primary has durable that we have not."""
        return max(0, self.primary_last_lsn - self.flushed_lsn)

    def status(self) -> Dict[str, Any]:
        return {
            "node": self.node_id,
            "term": self.term,
            "address": list(self.address),
            "flushed_lsn": self.flushed_lsn,
            "primary_last_lsn": self.primary_last_lsn,
            "lag_records": self.lag_records,
            "promoted": self._promoted,
            "tables": sorted(n.lower() for n in self.catalog.names()),
        }

    # ------------------------------------------------------------------
    # Promotion + lifecycle
    # ------------------------------------------------------------------

    def promote(self) -> int:
        """Fence and step up; returns the new term.

        Ordering is the invariant: (1) stop accepting stream traffic,
        (2) make the bumped term durable, (3) close the replica
        manager.  A crash between (1) and (2) — the ``repl_promote``
        window — leaves an unpromoted standby whose next incarnation
        can simply retry; a crash after (2) leaves a promoted node
        whose term is already fenced in, so re-running promotion (or
        opening the directory as a primary) is safe.
        """
        with self._lock:
            if self._closed:
                raise ReplicationError("cannot promote a closed standby")
            if self._promoted:
                return self.term
            self._close_listener()
            spec = _crash_point("repl_promote")
            if spec is not None:
                execute_crash(spec)
            new_term = self.term + 1
            store_node_meta(
                self.directory, node=self.node_id, term=new_term,
                role="primary", fsync=True,
            )
            self.term = new_term
            self._promoted = True
            self._closed = True
            self.manager.close()
        self._close_conns()
        if OBS.metrics:
            METRICS.counter("repro_repl_promotions_total").inc()
        return self.term

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_listener()
            self.manager.close()
        self._close_conns()

    def _close_conns(self) -> None:
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            # shutdown() before close(): a bare close() of an fd a
            # serve thread is blocked in recv() on does not interrupt
            # the syscall, and the kernel socket (holding our port)
            # stays alive until the 30s recv timeout fires.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _close_listener(self) -> None:
        # Same reasoning as _close_conns: wake the blocked accept().
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def _simulate_crash(self) -> None:
        with self._lock:
            self.crashed = True
            self._closed = True
            self._close_listener()
            self.manager.abandon()
        self._close_conns()

    def abandon(self) -> None:
        """Die without flushing — the in-process crash stand-in."""
        with self._lock:
            self._closed = True
            self._close_listener()
            self.manager.abandon()
        self._close_conns()

    def __enter__(self) -> "ReplicationStandby":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
