"""Typed columns — the unit of storage for the vectorized engine.

Numeric columns (INT, FLOAT, BOOL) are backed by numpy arrays with an
explicit null mask, so relational operators over them run at vectorized
speed (the MonetDB-style execution model the paper's engine integration
assumes).  Variable-length columns (TEXT, JSON) are backed by Python object
arrays; JSON columns hold their values in *serialized* form (see
:mod:`repro.storage.serde`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import TypeMismatchError
from ..types import NUMPY_DTYPES, SqlType, coerce

__all__ = ["Column"]

_NUMERIC = (SqlType.INT, SqlType.FLOAT, SqlType.BOOL)


class Column:
    """An immutable, typed column of values.

    Parameters
    ----------
    name:
        Column name (used for schema lookups and result labelling).
    sql_type:
        Declared :class:`~repro.types.SqlType`.
    values:
        Any iterable of Python values; each is coerced to the canonical
        form for ``sql_type``.  ``None`` entries are SQL NULLs.
    validate:
        When False, values are trusted (used on internal fast paths where
        values were already produced in canonical form).
    """

    __slots__ = ("name", "sql_type", "_data", "_null")

    def __init__(
        self,
        name: str,
        sql_type: SqlType,
        values: Iterable[Any],
        *,
        validate: bool = True,
    ):
        self.name = name
        self.sql_type = sql_type
        values = list(values)
        if validate:
            values = [None if v is None else coerce(v, sql_type) for v in values]
        if sql_type in _NUMERIC:
            null = np.fromiter(
                (v is None for v in values), dtype=bool, count=len(values)
            )
            fill: Any = 0
            data = np.fromiter(
                (fill if v is None else v for v in values),
                dtype=NUMPY_DTYPES[sql_type],
                count=len(values),
            )
            self._data = data
            self._null = null
        else:
            self._data = np.array(values, dtype=object)
            self._null = None  # nulls are represented by None entries

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        name: str,
        sql_type: SqlType,
        data: np.ndarray,
        null: Optional[np.ndarray] = None,
    ) -> "Column":
        """Wrap pre-built numpy arrays without copying or validation."""
        col = cls.__new__(cls)
        col.name = name
        col.sql_type = sql_type
        if sql_type in _NUMERIC:
            col._data = np.asarray(data, dtype=NUMPY_DTYPES[sql_type])
            col._null = (
                np.zeros(len(col._data), dtype=bool) if null is None else null
            )
        else:
            col._data = np.asarray(data, dtype=object)
            col._null = None
        return col

    @classmethod
    def empty(cls, name: str, sql_type: SqlType) -> "Column":
        """An empty column of the given type."""
        return cls(name, sql_type, [], validate=False)

    def renamed(self, name: str) -> "Column":
        """A shallow copy of this column under a new name."""
        col = Column.__new__(Column)
        col.name = name
        col.sql_type = self.sql_type
        col._data = self._data
        col._null = self._null
        return col

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index: int) -> Any:
        if self._null is not None and self._null[index]:
            return None
        value = self._data[index]
        if self.sql_type is SqlType.INT:
            return int(value)
        if self.sql_type is SqlType.FLOAT:
            return float(value)
        if self.sql_type is SqlType.BOOL:
            return bool(value)
        return value

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    def to_list(self) -> List[Any]:
        """Materialize the column as a list of Python values (None = NULL)."""
        if self._null is None:
            return list(self._data)
        out: List[Any] = self._data.tolist()
        if self._null.any():
            for i in np.flatnonzero(self._null):
                out[i] = None
        return out

    def numpy(self) -> np.ndarray:
        """The backing numpy array (nulls are garbage; consult null_mask)."""
        return self._data

    def null_mask(self) -> np.ndarray:
        """Boolean numpy mask, True where the value is NULL."""
        if self._null is not None:
            return self._null
        return np.fromiter(
            (v is None for v in self._data), dtype=bool, count=len(self._data)
        )

    def has_nulls(self) -> bool:
        """True if any value is NULL."""
        if self._null is not None:
            return bool(self._null.any())
        return any(v is None for v in self._data)

    @property
    def nbytes(self) -> int:
        """Backing buffer size in bytes (object columns count pointer
        slots only — the columnar plane's page-accounting convention)."""
        total = self._data.nbytes
        if self._null is not None:
            total += self._null.nbytes
        return total

    def to_page(self):
        """This column as a columnar-plane ``BufferPage`` (zero-copy)."""
        from ..columnar.buffer import BufferPage

        return BufferPage.from_column(self)

    # ------------------------------------------------------------------
    # Bulk operations used by the vectorized executor
    # ------------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Column":
        """Gather rows at the given positions."""
        idx = np.asarray(indices, dtype=np.int64)
        col = Column.__new__(Column)
        col.name = self.name
        col.sql_type = self.sql_type
        col._data = self._data[idx]
        col._null = None if self._null is None else self._null[idx]
        return col

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        col = Column.__new__(Column)
        col.name = self.name
        col.sql_type = self.sql_type
        col._data = self._data[mask]
        col._null = None if self._null is None else self._null[mask]
        return col

    def slice(self, start: int, stop: int) -> "Column":
        """Rows in ``[start, stop)``."""
        col = Column.__new__(Column)
        col.name = self.name
        col.sql_type = self.sql_type
        col._data = self._data[start:stop]
        col._null = None if self._null is None else self._null[start:stop]
        return col

    def scatter(self, positions: np.ndarray, values: "Column") -> "Column":
        """A copy of this column with ``values`` written at ``positions``."""
        data, null = self._data.copy(), None
        data[positions] = values._data
        if self._null is not None:
            null = self._null.copy()
            null[positions] = values.null_mask()
        return Column.from_numpy(self.name, self.sql_type, data, null)

    @staticmethod
    def concat(name: str, columns: Sequence["Column"]) -> "Column":
        """Concatenate same-typed columns into one."""
        if not columns:
            raise TypeMismatchError("cannot concat zero columns")
        sql_type = columns[0].sql_type
        for col in columns:
            if col.sql_type is not sql_type:
                raise TypeMismatchError(
                    f"concat type mismatch: {col.sql_type} vs {sql_type}"
                )
        out = Column.__new__(Column)
        out.name = name
        out.sql_type = sql_type
        out._data = np.concatenate([c._data for c in columns]) if columns else None
        if sql_type in _NUMERIC:
            out._null = np.concatenate([c.null_mask() for c in columns])
        else:
            out._null = None
        return out

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.sql_type is other.sql_type
            and self.to_list() == other.to_list()
        )

    def __hash__(self):  # pragma: no cover - columns are not hashable
        raise TypeError("Column objects are unhashable")

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.to_list()[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"Column({self.name!r}, {self.sql_type}, [{preview}{suffix}])"
