"""Serialization of complex values at the engine boundary.

Databases represent complex datatypes (lists, dictionaries, nested
structures) as JSON text (paper section 4.2.4).  Values of SQL type
``JSON`` are stored serialized and must be deserialized before a Python
UDF can use them — unless QFusor's fused wrappers eliminate the interior
(de-)serialization steps.

This module is intentionally thin: it is the *unit of overhead* that the
fusion optimizer removes, so it must do real work (it delegates to the
stdlib ``json`` codec) and be the single choke-point both the wrappers and
the benchmarks use.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "serialize", "deserialize", "serialize_values", "deserialize_values",
]

_SEPARATORS = (",", ":")


def serialize(value: Any) -> str:
    """Serialize a complex Python value to the engine's JSON text form."""
    return json.dumps(value, separators=_SEPARATORS, ensure_ascii=False)


def deserialize(text: str) -> Any:
    """Deserialize engine JSON text back into a Python value."""
    return json.loads(text)


def serialize_values(values) -> list:
    """Serialize a batch of values (``None`` passes through as SQL NULL).

    The columnar kernels use this for JSON result columns: the per-value
    serialization work is identical to the classic path — batching
    eliminates boundary *crossings*, never the modeled serde cost.
    """
    return [None if v is None else serialize(v) for v in values]


def deserialize_values(values) -> list:
    """Deserialize a batch of engine JSON texts (``None`` = SQL NULL)."""
    return [None if v is None else deserialize(v) for v in values]

