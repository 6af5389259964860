"""WAL / checkpoint record payloads and the table image codec.

Payloads are JSON objects (debuggable, deterministic, and safe to parse
from a half-trusted file — unlike pickle, a corrupt payload can at worst
fail to decode).  The framing layer (:mod:`repro.storage.durability.wal`)
adds length prefixes and CRCs; this module only defines *what* is
logged:

``table``
    A full physical image of one table (name, schema, column values)
    plus the snapshot epoch the operation produced — what a load,
    ``CREATE TABLE AS`` or any other :meth:`Catalog.register` logs.
``insert`` / ``update`` / ``delete``
    A row delta (:class:`~repro.storage.catalog.Delta`) from a minidb
    DML statement plus the epoch it produced: ``cols`` holds
    ``[position, values]`` pairs, ``pos`` the updated or deleted rows of
    the table as the previous record left it.  Not idempotent: replay
    applies each once, in LSN order, past the checkpoint's LSN.
``drop``
    A table removal plus its post-drop epoch.
``touch``
    An epoch bump with no catalog payload — emitted for engines whose
    row storage lives outside our catalog (the sqlite3 adapter), where
    only the epoch must survive a restart for result-cache keys to stay
    correct.
``udf``
    A UDF definition-version advance (name, version, content
    fingerprint), so re-registering a *changed* body after a restart
    keeps rotating cache keys instead of resetting to version 1.
``gen``
    A database-generation advance; recovery bumps and persists this so
    any cache entry keyed before the crash is structurally unreachable
    afterwards, even if an epoch bump was lost in a torn tail.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...types import SqlType
from ..catalog import Delta
from ..column import Column
from ..table import Table

__all__ = [
    "DELTA_OPS",
    "table_record",
    "delta_record",
    "decode_delta",
    "drop_record",
    "touch_record",
    "udf_record",
    "generation_record",
    "encode_table",
    "decode_table",
]


def encode_table(table: Table) -> Dict[str, Any]:
    """A JSON-safe full physical image of ``table``."""
    return {
        "name": table.name,
        "schema": [[name, sql_type.value] for name, sql_type in table.schema],
        "cols": [col.to_list() for col in table.columns],
    }


def _decode_column(name: str, sql_type: SqlType, values: List[Any]) -> Column:
    if sql_type is SqlType.INT:
        # JSON round-trips ints exactly but has no int/float tag for
        # whole-valued floats written by other tools; coerce.
        values = [None if v is None else int(v) for v in values]
    return Column(name, sql_type, values, validate=False)


def decode_table(payload: Dict[str, Any]) -> Table:
    """Rebuild a :class:`Table` from :func:`encode_table` output."""
    schema = [(name, SqlType(type_name)) for name, type_name in payload["schema"]]
    return Table(payload["name"], [
        _decode_column(name, sql_type, values)
        for (name, sql_type), values in zip(schema, payload["cols"])
    ])


def table_record(table: Table, epoch: int) -> Dict[str, Any]:
    record = {"op": "table", "epoch": epoch}
    record.update(encode_table(table))
    return record


DELTA_OPS = ("insert", "update", "delete")


def delta_record(name: str, delta: Delta, epoch: int) -> Dict[str, Any]:
    return {
        "op": delta.op, "name": name, "epoch": epoch,
        "pos": delta.positions.tolist(),
        "cols": [[i, col.to_list()] for i, col in delta.columns.items()],
    }


def decode_delta(payload: Dict[str, Any], table: Table) -> Delta:
    """Rebuild a :class:`Delta` against ``table``, whose schema types
    the logged values."""
    return Delta(payload["op"], payload["pos"], {
        i: _decode_column(table.columns[i].name, table.columns[i].sql_type, values)
        for i, values in payload["cols"]
    })


def drop_record(name: str, epoch: int) -> Dict[str, Any]:
    return {"op": "drop", "name": name, "epoch": epoch}


def touch_record(name: str, epoch: int) -> Dict[str, Any]:
    return {"op": "touch", "name": name, "epoch": epoch}


def udf_record(name: str, version: int, fingerprint: str) -> Dict[str, Any]:
    return {"op": "udf", "name": name, "version": version, "fp": fingerprint}


def generation_record(generation: int) -> Dict[str, Any]:
    return {"op": "gen", "generation": generation}
