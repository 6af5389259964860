"""SQL type system shared by the storage layer, the engine, and UDFs.

The engine supports a compact set of SQL types plus a ``JSON`` type used to
store complex Python values (lists, dictionaries, nested structures) the way
most databases do — as serialized JSON text (paper section 4.2.4).  A
``JSON`` value in the engine is always that text (a ``str``) or NULL:
:func:`coerce` serializes any other value on its way in.

A :class:`SqlType` knows how to

* validate / coerce a Python value into its canonical in-engine form,
* map itself to a numpy dtype (for the vectorized executor),
* map itself to the names used by each engine dialect.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Optional

from .errors import TypeMismatchError


class SqlType(enum.Enum):
    """Canonical SQL types supported by the engine."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"
    JSON = "JSON"  # complex values, stored serialized

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Python annotation -> SqlType used by UDF signature inference.
PYTHON_TO_SQL = {
    int: SqlType.INT,
    float: SqlType.FLOAT,
    str: SqlType.TEXT,
    bool: SqlType.BOOL,
    list: SqlType.JSON,
    dict: SqlType.JSON,
    tuple: SqlType.JSON,
}

#: SqlType -> numpy dtype string for the vectorized executor. JSON and TEXT
#: are stored as object arrays since their values are variable length.
NUMPY_DTYPES = {
    SqlType.INT: "int64",
    SqlType.FLOAT: "float64",
    SqlType.TEXT: "object",
    SqlType.BOOL: "bool",
    SqlType.JSON: "object",
}


def sql_type_for_python(annotation: Any) -> SqlType:
    """Return the :class:`SqlType` for a Python type annotation.

    Raises :class:`TypeMismatchError` for unsupported annotations.
    """
    if isinstance(annotation, SqlType):
        return annotation
    if annotation in PYTHON_TO_SQL:
        return PYTHON_TO_SQL[annotation]
    if isinstance(annotation, str):
        name = annotation.upper()
        try:
            return SqlType[name]
        except KeyError:
            lowered = annotation.lower()
            for py_type, sql_type in PYTHON_TO_SQL.items():
                if py_type.__name__ == lowered:
                    return sql_type
    raise TypeMismatchError(f"unsupported type annotation: {annotation!r}")


def sql_type_of_value(value: Any) -> Optional[SqlType]:
    """Infer the :class:`SqlType` of a runtime Python value.

    Returns ``None`` for SQL NULL (Python ``None``), since NULL is typeless.
    """
    if value is None:
        return None
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return SqlType.BOOL
    if isinstance(value, int):
        return SqlType.INT
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.TEXT
    if isinstance(value, (list, dict, tuple)):
        return SqlType.JSON
    raise TypeMismatchError(f"value of unsupported type: {type(value).__name__}")


def coerce(value: Any, sql_type: SqlType) -> Any:
    """Coerce ``value`` into the canonical Python form for ``sql_type``.

    ``None`` always passes through (SQL NULL).  Numeric widening
    (INT -> FLOAT) is allowed; lossy coercions raise
    :class:`TypeMismatchError`.  JSON takes a ``str`` as serialized text
    as it is and serializes a list, dict, tuple or scalar.
    """
    if value is None:
        return None
    if sql_type is SqlType.INT:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if not math.isfinite(value) or value != int(value):
                raise TypeMismatchError(f"cannot coerce {value!r} to INT")
            return int(value)
    elif sql_type is SqlType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
    elif sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, bytes):
            return value.decode("utf-8")
    elif sql_type is SqlType.BOOL:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
    elif sql_type is SqlType.JSON:
        if isinstance(value, str):  # already serialized text
            return value
        if isinstance(value, (list, dict, tuple, int, float, bool)):
            from .storage.serde import serialize  # storage imports this module

            return serialize(value)
    raise TypeMismatchError(
        f"cannot coerce {type(value).__name__} value {value!r} to {sql_type}"
    )


def common_type(left: Optional[SqlType], right: Optional[SqlType]) -> Optional[SqlType]:
    """Return the widest common type of two operand types.

    Used by expression type inference.  ``None`` (NULL) unifies with
    anything.  INT and FLOAT unify to FLOAT; everything else must match.
    """
    if left is None:
        return right
    if right is None:
        return left
    if left is right:
        return left
    numeric = {SqlType.INT, SqlType.FLOAT, SqlType.BOOL}
    if left in numeric and right in numeric:
        if SqlType.FLOAT in (left, right):
            return SqlType.FLOAT
        return SqlType.INT
    raise TypeMismatchError(f"incompatible types: {left} vs {right}")


def is_numeric(sql_type: Optional[SqlType]) -> bool:
    """True for types usable in arithmetic."""
    return sql_type in (SqlType.INT, SqlType.FLOAT, SqlType.BOOL)
