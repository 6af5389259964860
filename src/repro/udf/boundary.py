"""The engine <-> UDF data boundary (CFFI stand-in).

The paper's wrappers cross a C <-> Python boundary: engine values must be
converted into Python objects before a UDF can touch them, and results
converted back (section 4.1); complex types additionally pay JSON
(de-)serialization (section 4.2.4).  QFusor's fusion removes the *interior*
crossings of a UDF pipeline.

This module is the reproduction of that boundary.  "C data" is modelled
as UTF-8 ``bytes`` for strings and serialized-then-encoded JSON for
complex values, so every crossing is real CPU work:

========  =======================  ==========================
SQL type  engine -> C              C -> Python
========  =======================  ==========================
TEXT      ``str.encode('utf-8')``  ``bytes.decode('utf-8')``
JSON      encode serialized text   decode + ``json.loads``
numeric   passthrough (counted)    passthrough (counted)
========  =======================  ==========================

Every crossing is counted in :data:`counters` so tests and the Figure 6c
benchmark can verify exactly which conversions fusion eliminated.

SQL NULL (``None``) passes through every conversion unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..resilience.runtime import FAULTS as _FAULTS
from ..storage import serde
from ..storage.column import Column
from ..types import SqlType

__all__ = [
    "counters", "BoundaryCounters",
    "engine_to_c", "c_to_python", "python_to_c", "c_to_engine",
    "column_to_c", "c_values_to_column",
    "column_to_python_batch", "python_batch_to_column",
]


@dataclass
class BoundaryCounters:
    """Counts of boundary crossings since the last reset."""

    engine_to_c: int = 0
    c_to_python: int = 0
    python_to_c: int = 0
    c_to_engine: int = 0
    serializations: int = 0
    deserializations: int = 0

    def reset(self) -> None:
        self.engine_to_c = 0
        self.c_to_python = 0
        self.python_to_c = 0
        self.c_to_engine = 0
        self.serializations = 0
        self.deserializations = 0

    @property
    def total_conversions(self) -> int:
        return (
            self.engine_to_c + self.c_to_python + self.python_to_c + self.c_to_engine
        )

    def snapshot(self) -> dict:
        """Copy of the counters as a plain dict."""
        return {
            "engine_to_c": self.engine_to_c,
            "c_to_python": self.c_to_python,
            "python_to_c": self.python_to_c,
            "c_to_engine": self.c_to_engine,
            "serializations": self.serializations,
            "deserializations": self.deserializations,
        }


#: Global crossing counters (reset in tests/benchmarks as needed).
counters = BoundaryCounters()


def engine_to_c(value: Any, sql_type: SqlType) -> Any:
    """Convert one engine-side value into its C buffer form."""
    counters.engine_to_c += 1
    if value is None:
        return None
    if sql_type is SqlType.TEXT or sql_type is SqlType.JSON:
        return value.encode("utf-8")
    return value


def c_to_python(value: Any, sql_type: SqlType) -> Any:
    """Convert one C buffer value into the Python object a UDF expects."""
    counters.c_to_python += 1
    if _FAULTS.armed:
        _FAULTS.injector.fire_boundary(sql_type)
    if value is None:
        return None
    if sql_type is SqlType.TEXT:
        return value.decode("utf-8")
    if sql_type is SqlType.JSON:
        counters.deserializations += 1
        return serde.deserialize(value.decode("utf-8"))
    return value


def python_to_c(value: Any, sql_type: SqlType) -> Any:
    """Convert a UDF result back into its C buffer form."""
    counters.python_to_c += 1
    if value is None:
        return None
    if sql_type is SqlType.TEXT:
        return value.encode("utf-8")
    if sql_type is SqlType.JSON:
        counters.serializations += 1
        return serde.serialize(value).encode("utf-8")
    return value


def c_to_engine(value: Any, sql_type: SqlType) -> Any:
    """Convert one C buffer value into the engine's storage form."""
    counters.c_to_engine += 1
    if value is None:
        return None
    if sql_type is SqlType.TEXT or sql_type is SqlType.JSON:
        return value.decode("utf-8")
    return value


def column_to_c(column: Column) -> List[Any]:
    """Bulk-convert a column into a list of C buffer values."""
    sql_type = column.sql_type
    values = column.to_list()
    counters.engine_to_c += len(values)
    if sql_type is SqlType.TEXT or sql_type is SqlType.JSON:
        return [None if v is None else v.encode("utf-8") for v in values]
    return values


def c_values_to_column(name: str, sql_type: SqlType, values: Sequence[Any]) -> Column:
    """Bulk-convert C buffer values back into an engine column."""
    counters.c_to_engine += len(values)
    if sql_type is SqlType.TEXT or sql_type is SqlType.JSON:
        decoded = [None if v is None else v.decode("utf-8") for v in values]
        return Column(name, sql_type, decoded, validate=False)
    return Column(name, sql_type, list(values), validate=True)


# ----------------------------------------------------------------------
# Columnar batch crossings (the typed-buffer data plane)
# ----------------------------------------------------------------------
#
# The kernel path crosses the boundary once per *column* instead of once
# per value: the whole typed buffer is handed over in one crossing.
# TEXT's classic encode→decode round trip is the identity, so values
# pass straight through; JSON still pays its real per-value serde work —
# batching removes crossings, never the modeled serialization cost.


def column_to_python_batch(column: Column) -> List[Any]:
    """One engine→Python crossing for a whole column."""
    counters.engine_to_c += 1
    counters.c_to_python += 1
    values = column.to_list()
    if column.sql_type is SqlType.JSON:
        counters.deserializations += sum(1 for v in values if v is not None)
        return serde.deserialize_values(values)
    return values


def python_batch_to_column(
    name: str, sql_type: SqlType, values: List[Any]
) -> Optional[Column]:
    """One Python→engine crossing for a whole result column.

    Returns ``None`` when a JSON value does not serialize or the values
    fail the trusted type scan of
    :func:`repro.columnar.buffer.page_from_values` — the caller must
    re-run on the classic path, whose per-value conversion owns the error
    semantics.
    """
    from ..columnar.buffer import PageTypeError, page_from_values

    counters.python_to_c += 1
    counters.c_to_engine += 1
    if sql_type is SqlType.JSON:
        counters.serializations += sum(1 for v in values if v is not None)
        try:
            values = serde.serialize_values(values)
        except Exception:
            return None
    try:
        return page_from_values(name, sql_type, values).to_column()
    except PageTypeError:
        return None
