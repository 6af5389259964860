"""repro.storage.durability — WAL + checkpoint + recovery.

Crash-consistent durability for the native engines::

    from repro.engines import MiniDbAdapter

    adapter = MiniDbAdapter(durability_dir="state/db")   # recovers, then logs
    ...
    adapter.close()

or attach explicitly::

    from repro.storage.durability import attach_to_adapter

    report = attach_to_adapter(adapter, "state/db", wal_fsync=True)
    print(report.records_replayed, report.generation)

Invariants the crash harness (:mod:`repro.testing.crash`) enforces at
kill points drawn from :data:`repro.testing.faults.FAULT_POINTS` (its
``audit_round`` audits failover rounds too):

* **No acked loss** — an operation whose call returned before the crash
  is present after recovery.
* **No unacked resurrection** — recovered state equals the uncrashed
  twin at some *prefix* of the workload at least as long as the acked
  prefix; a torn tail never fabricates state.
* **Cache safety** — snapshot epochs and UDF definition versions are
  restored, and the database generation strictly advances, so no
  result-cache entry keyed before the crash can be served after it.
* **Durability after recovery** — a write acknowledged by the recovered
  incarnation survives the next restart, and the generation advances
  again.
"""

from .checkpoint import CHECKPOINT_NAME, read_checkpoint, write_checkpoint
from .manager import DurabilityManager, RecoveryReport, attach_to_adapter
from .records import decode_table, encode_table
from .wal import IO_CALLS, WalRecord, WriteAheadLog, reset_io_calls

__all__ = [
    "DurabilityManager",
    "RecoveryReport",
    "attach_to_adapter",
    "WriteAheadLog",
    "WalRecord",
    "IO_CALLS",
    "reset_io_calls",
    "CHECKPOINT_NAME",
    "read_checkpoint",
    "write_checkpoint",
    "encode_table",
    "decode_table",
]
