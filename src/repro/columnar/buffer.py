"""Typed buffer pages — the columnar data plane's unit of exchange.

A :class:`BufferPage` is a thin, named view over one contiguous typed
buffer: a numpy array for numerics (plus an explicit null mask) or a
Python object array for variable-length values (TEXT/JSON, where ``None``
entries are SQL NULLs).  A :class:`Batch` is an aligned set of pages — the
unit operators and fused traces hand to each other.

Pages are deliberately *storage-compatible* with
:class:`repro.storage.column.Column`: converting between the two never
copies the backing buffers, so the columnar plane can be threaded through
the existing executors without a materialization tax.  Slicing is
zero-copy too (numpy views), which is what makes morsel-driven execution
cheap: a morsel is just ``batch.slice(start, stop)``.

``page_from_values`` is the trusted fast path from UDF results back into
a page.  It *verifies* value types with a single C-speed scan instead of
calling :func:`repro.types.coerce` per value; any value the scan cannot
vouch for raises :class:`PageTypeError` so callers fall back to the
validating path — the fast path is never allowed to change semantics
(``np.fromiter`` would happily truncate ``1.5`` into an INT column where
``coerce`` raises).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from ..storage.column import Column
from ..storage.table import Table
from ..types import NUMPY_DTYPES, SqlType

__all__ = ["BufferPage", "Batch", "PageTypeError", "page_from_values"]

_NUMERIC = (SqlType.INT, SqlType.FLOAT, SqlType.BOOL)


class PageTypeError(TypeError):
    """A value batch failed the trusted-page type scan (caller must fall
    back to the validating :class:`~repro.storage.column.Column` path)."""


class BufferPage:
    """One typed contiguous buffer plus its null mask.

    ``data`` is the backing numpy array (typed for numerics, ``object``
    for TEXT/JSON).  ``null`` is a boolean mask for numeric pages and
    ``None`` for object pages (whose NULLs are ``None`` entries).
    """

    __slots__ = ("name", "sql_type", "data", "null")

    def __init__(self, name: str, sql_type: SqlType, data: np.ndarray,
                 null: Optional[np.ndarray] = None):
        self.name = name
        self.sql_type = sql_type
        self.data = data
        self.null = null

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        """Backing buffer size (object pages count pointer slots only)."""
        total = self.data.nbytes
        if self.null is not None:
            total += self.null.nbytes
        return total

    # -- Column interop (zero-copy both ways) --------------------------

    @classmethod
    def from_column(cls, column: Column) -> "BufferPage":
        """Wrap a column's backing arrays without copying."""
        return cls(
            column.name, column.sql_type, column.numpy(),
            column._null if column.sql_type in _NUMERIC else None,
        )

    def to_column(self) -> Column:
        """Wrap this page back into a column without copying."""
        col = Column.__new__(Column)
        col.name = self.name
        col.sql_type = self.sql_type
        col._data = self.data
        if self.sql_type in _NUMERIC:
            col._null = (
                self.null if self.null is not None
                else np.zeros(len(self.data), dtype=bool)
            )
        else:
            col._null = None
        return col

    # -- views ----------------------------------------------------------

    def slice(self, start: int, stop: int) -> "BufferPage":
        """Rows in ``[start, stop)`` as a zero-copy view."""
        return BufferPage(
            self.name, self.sql_type, self.data[start:stop],
            None if self.null is None else self.null[start:stop],
        )

    def null_mask(self) -> np.ndarray:
        if self.null is not None:
            return self.null
        return np.fromiter(
            (v is None for v in self.data), dtype=bool, count=len(self.data)
        )

    def values(self) -> List[Any]:
        """Materialize as a list of Python values (None = NULL)."""
        out: List[Any] = self.data.tolist()
        if self.null is not None and self.null.any():
            for i in np.flatnonzero(self.null):
                out[i] = None
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BufferPage({self.name!r}, {self.sql_type}, "
                f"rows={len(self.data)})")


class Batch:
    """An aligned set of pages: the columnar unit of exchange."""

    __slots__ = ("pages", "size")

    def __init__(self, pages: Sequence[BufferPage], size: int):
        self.pages = list(pages)
        self.size = size

    def __len__(self) -> int:
        return self.size

    @property
    def nbytes(self) -> int:
        return sum(page.nbytes for page in self.pages)

    @classmethod
    def from_columns(cls, columns: Sequence[Column], size: int) -> "Batch":
        return cls([BufferPage.from_column(c) for c in columns], size)

    @classmethod
    def from_table(cls, table: Table) -> "Batch":
        return cls.from_columns(list(table.columns), table.num_rows)

    def to_columns(self) -> List[Column]:
        return [page.to_column() for page in self.pages]

    def to_table(self, name: str = "batch") -> Table:
        return Table(name, self.to_columns())

    def slice(self, start: int, stop: int) -> "Batch":
        """A zero-copy morsel view of rows ``[start, stop)``."""
        return Batch(
            [page.slice(start, stop) for page in self.pages],
            max(0, min(stop, self.size) - start),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch(pages={len(self.pages)}, rows={self.size})"


# ----------------------------------------------------------------------
# Trusted page construction from UDF result values
# ----------------------------------------------------------------------

#: Accepted concrete Python types per SQL type, chosen so the fast path
#: agrees with ``coerce`` exactly on every accepted value (anything else
#: must take the validating path, which may coerce *or* raise): INT
#: accepts bool/int (coerce maps both through ``int``), FLOAT accepts
#: bool/int/float (numeric widening, with the same ``float(v)`` precision
#: loss coerce has), BOOL accepts only bool (coerce also takes 0/1 ints —
#: too narrow here is safe, too wide would be wrong).  The scan is one
#: C-speed ``set(map(type, ...))``; subclasses (e.g. IntEnum) miss the
#: set and fall back, which is the conservative direction.
_NoneType = type(None)
_TRUSTED_TYPES = {
    SqlType.INT: frozenset((int, bool, _NoneType)),
    SqlType.FLOAT: frozenset((float, int, bool, _NoneType)),
    SqlType.BOOL: frozenset((bool, _NoneType)),
    SqlType.TEXT: frozenset((str, _NoneType)),
    SqlType.JSON: frozenset((str, _NoneType)),
}


def page_from_values(
    name: str, sql_type: SqlType, values: Sequence[Any]
) -> BufferPage:
    """Build a page from Python values via one type scan (no per-value
    ``coerce``).  Raises :class:`PageTypeError` when any value is outside
    the trusted set for ``sql_type``."""
    values = values if isinstance(values, list) else list(values)
    if not _TRUSTED_TYPES[sql_type].issuperset(map(type, values)):
        raise PageTypeError(f"untrusted values for {sql_type} page {name!r}")
    n = len(values)
    if sql_type not in _NUMERIC:
        data = np.empty(n, dtype=object)
        data[:] = values
        return BufferPage(name, sql_type, data)
    dtype = NUMPY_DTYPES[sql_type]
    # NULLs are detected by an explicit scan, never by letting numpy
    # choke on None: ``np.fromiter`` silently converts None to ``nan``
    # (FLOAT) or ``False`` (BOOL), which would erase NULL-ness.
    if None in values:
        null: Optional[np.ndarray] = np.fromiter(
            (v is None for v in values), dtype=bool, count=n
        )
        filler = (0 if v is None else v for v in values)
    else:
        null = None
        filler = values
    try:
        data = np.fromiter(filler, dtype=dtype, count=n)
    except (TypeError, ValueError, OverflowError) as exc:
        # e.g. an int beyond int64: the validating path decides.
        raise PageTypeError(str(exc)) from exc
    return BufferPage(name, sql_type, data, null)
