"""Catalog: the engine's registry of tables and their statistics."""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..errors import CatalogError
from .column import Column
from .table import Table

__all__ = ["Catalog", "Delta", "TableStats"]


class Delta:
    """A row change to one table, as DML computes it and the WAL logs it:
    ``insert`` (``columns`` maps every column position to the new rows),
    ``update`` (the assigned positions to their new, already coerced
    values at row ``positions``) or ``delete`` (row ``positions`` go)."""

    __slots__ = ("op", "positions", "columns")

    def __init__(self, op: str, positions=(),
                 columns: Optional[Dict[int, Column]] = None):
        self.op = op
        self.positions = np.asarray(positions, dtype=np.int64)
        self.columns = columns or {}

    def apply(self, table: Table) -> Table:
        """``table`` after this change, built from its columns with numpy
        operations only (concat, copy-and-scatter, boolean filter)."""
        if self.op == "delete":
            keep = np.ones(table.num_rows, dtype=bool)
            keep[self.positions] = False
            return table.filter(keep)
        columns = list(table.columns)
        for i, new in self.columns.items():
            old = columns[i]
            columns[i] = (
                Column.concat(old.name, [old, new]) if self.op == "insert"
                else old.scatter(self.positions, new)
            )
        return Table(table.name, columns)


class TableStats:
    """Lightweight per-table statistics used by the native optimizer and the
    QFusor cost model (row estimates and per-column distinct counts)."""

    __slots__ = ("row_count", "distinct")

    def __init__(self, table: Table):
        self.row_count = table.num_rows
        self.distinct: Dict[str, int] = {}
        for col in table.columns:
            self.distinct[col.name] = len(set(col.to_list()))

    def selectivity_of_distinct(self, column: str) -> float:
        """Fraction of rows surviving a DISTINCT on ``column``."""
        if self.row_count == 0:
            return 1.0
        return self.distinct.get(column, self.row_count) / self.row_count


class Catalog:
    """Holds the engine's tables, keyed by lower-cased name.

    All mutations run under one re-entrant lock so the epoch bump and the
    durability log append are a single atomic step: WAL order always
    matches epoch order, which is what makes replayed epochs exact.
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[str, TableStats] = {}
        # Snapshot epochs: monotonically increasing per-table counters,
        # bumped on every load/insert/update/delete/drop.  The result
        # cache keys on them, so any write retires dependent entries.
        self._epochs: Dict[str, int] = {}
        self._lock = threading.RLock()
        #: Database generation: 0 without durability; bumped by every
        #: recovery so result-cache keys from before a crash can never
        #: collide with post-restart state.
        self.generation = 0
        #: Optional :class:`~repro.storage.durability.DurabilityManager`;
        #: when set, every mutation is WAL-logged before it returns.
        self.durability = None

    def register(self, table: Table, *, replace: bool = False) -> None:
        """Add a table; ``replace=True`` overwrites an existing one."""
        key = table.name.lower()
        with self._lock:
            if key in self._tables and not replace:
                raise CatalogError(f"table {table.name!r} already exists")
            if table.schema.has_duplicates:
                raise CatalogError(
                    f"table {table.name!r} has duplicate column names"
                )
            self._tables[key] = table
            self._stats[key] = TableStats(table)
            epoch = self._bump(key)
            if self.durability is not None:
                self.durability.log_table(table, epoch)

    def write(
        self,
        name: str,
        delta: Delta,
        *,
        base: Optional[Table] = None,
        epoch: Optional[int] = None,
    ) -> bool:
        """Apply a row delta — the one write path of DML, WAL replay and
        standby apply: build the new table, install it, bump the epoch
        and log the delta as one step under the mutation lock.

        ``base`` is the table the delta was computed against; if another
        writer installed a different one first, nothing changes and False
        is returned, so the caller recomputes.  Replay passes the logged
        ``epoch``, which is restored instead of bumped, and logs nothing.
        """
        key = name.lower()
        with self._lock:
            table = self.get(name)
            if base is not None and table is not base:
                return False
            self._tables[key] = delta.apply(table)
            # Statistics are recomputed on their next use, not per write.
            self._stats.pop(key, None)
            if epoch is not None:
                self.restore_epoch(key, epoch)
                return True
            epoch = self._bump(key)
            if self.durability is not None:
                self.durability.log_delta(table.name, delta, epoch)
        return True

    def drop(self, name: str) -> None:
        """Remove a table."""
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            del self._tables[key]
            self._stats.pop(key, None)
            epoch = self._bump(key)
            if self.durability is not None:
                self.durability.log_drop(name, epoch)

    # ------------------------------------------------------------------
    # Snapshot epochs
    # ------------------------------------------------------------------

    def epoch(self, name: str) -> int:
        """The table's snapshot epoch (0 before the first registration)."""
        return self._epochs.get(name.lower(), 0)

    def touch(self, name: str) -> None:
        """Advance a table's snapshot epoch (the write-tracking hook).

        Also used by adapters whose storage lives outside this catalog
        (the sqlite3 adapter): a DML statement that mutates engine-side
        rows bumps the epoch here so dependent result-cache entries are
        retired even though no :meth:`register` call happened.
        """
        key = name.lower()
        with self._lock:
            epoch = self._bump(key)
            if self.durability is not None:
                self.durability.log_touch(name, epoch)

    def _bump(self, key: str) -> int:
        """Advance and return a table's epoch; caller holds the lock."""
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        return epoch

    # ------------------------------------------------------------------
    # Recovery restore hooks (durability-internal: no epoch bump beyond
    # the recorded value, no WAL logging; delta records replay through
    # write(epoch=...))
    # ------------------------------------------------------------------

    def restore_table(self, table: Table, epoch: Optional[int] = None) -> None:
        """Install a recovered table image without logging it."""
        key = table.name.lower()
        with self._lock:
            self._tables[key] = table
            self._stats[key] = TableStats(table)
            if epoch is not None:
                self.restore_epoch(key, epoch)

    def restore_drop(self, name: str, epoch: Optional[int] = None) -> None:
        """Replay a drop; tolerates the table already being gone
        (a checkpoint raced the record — replay is idempotent)."""
        key = name.lower()
        with self._lock:
            self._tables.pop(key, None)
            self._stats.pop(key, None)
            if epoch is not None:
                self.restore_epoch(key, epoch)

    def restore_epoch(self, name: str, epoch: int) -> None:
        """Set a recovered epoch; only ever moves forward."""
        key = name.lower()
        with self._lock:
            if epoch > self._epochs.get(key, 0):
                self._epochs[key] = epoch

    def get(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def stats(self, name: str) -> TableStats:
        """Statistics for a table (recomputed here after a delta write)."""
        key = name.lower()
        stats = self._stats.get(key)
        if stats is None:
            with self._lock:
                stats = self._stats.get(key)
                if stats is None:
                    stats = self._stats[key] = TableStats(self.get(name))
        return stats

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def names(self) -> List[str]:
        """Registered table names."""
        return [t.name for t in self._tables.values()]
