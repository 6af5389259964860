"""repro.storage.replication — hot-standby WAL shipping with fencing.

A primary streams its sealed WAL frames (and checkpoint images, for
standby bootstrap and post-reset catch-up) to one or more standbys over
a length-prefixed socket protocol; every frame is CRC re-verified on
arrival and applied through the same restore hooks and delta-apply
path (``Catalog.write``) recovery uses.  Promotion is fenced by a persisted, promotion-only **term**: a
promoted standby fsyncs its bumped term before serving, and the
handshake rejects any node presenting a stale one — a revived old
primary is structurally incapable of acknowledging a post-failover
write.  See DESIGN.md §15.

Quick start::

    standby = ReplicationStandby(standby_dir)
    primary = ReplicationPrimary(
        manager, [standby.address], sync=True, ack_timeout_s=0.5)
    manager.replication = primary
    ...
    term = standby.promote()          # fence + step up
    # re-open standby_dir as a normal primary: ordinary recovery.
"""

from .fence import NODE_META_NAME, load_node_meta, store_node_meta
from .primary import DEGRADE_MARKER_NAME, ReplicationPrimary
from .protocol import REPL_IO_CALLS, reset_repl_io_calls
from .standby import ReplicationStandby

__all__ = [
    "ReplicationPrimary",
    "ReplicationStandby",
    "REPL_IO_CALLS",
    "reset_repl_io_calls",
    "NODE_META_NAME",
    "DEGRADE_MARKER_NAME",
    "load_node_meta",
    "store_node_meta",
]
