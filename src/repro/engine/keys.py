"""Key codes: the value -> dense int64 code encoding under the vector
executor's hashing operators.

:func:`factorize` maps each row of a key (one or more columns) to a code
in ``0..k-1``, numbered in first-seen order, and returns the first row
of each code.  Group-by, distinct, the equi-join and the set operations
then run on codes with numpy instead of hashing Python tuples row by
row — the bag representation (value -> multiplicity over dense codes)
of "A Compiler for Operations on Relations with Bag Semantics".

Equality is Python's, so the codes agree with the row loops they
replace: NULL is one code of its own; each float NaN is a code of its
own (a fresh Python float per row never equals itself); ``-0.0`` and
``0.0`` share one.  A JSON value is its serialized text, so JSON keys
are equal when their text is.  Object (TEXT/JSON) columns are encoded
with one dict pass, or taken from the column's cached dictionary;
numeric columns with ``np.unique``.  A multi-column key combines its
per-column codes and re-factorizes the result.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience.governor import guarded_chunks
from ..storage.column import Column
from ..types import SqlType

__all__ = ["factorize", "join_codes", "joint_column", "encode_objects"]

#: Rows per chunk of a dict pass (a ``CHECK_STRIDE`` multiple).
CHUNK = 4096

_NUMERIC = (SqlType.INT, SqlType.FLOAT, SqlType.BOOL)

#: Per-column codes: (codes, number of codes, NULL's code or -1, whether
#: the codes are already numbered in first-seen order).
_Part = Tuple[np.ndarray, int, int, bool]


def factorize(
    columns: Sequence[Column], size: Optional[int] = None, *,
    charge: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, first_rows)`` for the row keys of ``columns``.

    ``codes`` are dense int64 in first-seen order; ``first_rows[c]`` is
    the first row holding code ``c``.  With no columns every one of the
    ``size`` rows has the same (empty) key.  The first ``charge`` rows
    (default: all) are charged to the query's governor chunk by chunk,
    exactly as a ``guarded_iter`` loop over them would be.
    """
    n = len(columns[0]) if columns else size
    parts = _key_parts(columns, n, _chunks(n, n if charge is None else charge))
    return _combine(parts, n)


def join_codes(
    left: Sequence[Column], right: Sequence[Column]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Equi-join key codes ``(left_codes, right_codes, k)``: a left and
    a right row share a code iff their keys compare equal, so
    ``1 == 1.0 == True`` match across INT/FLOAT/BOOL.  A row with a NULL
    in its key gets -1 and never matches.  The left rows are governed
    like the per-row probe loop this replaces; the build side is not."""
    n_left = len(left[0])
    joint = [joint_column(l, r) for l, r in zip(left, right)]
    n = len(joint[0])
    parts = _key_parts(joint, n, _chunks(n, n_left))
    codes, first_rows = _combine(parts, n)
    null = np.zeros(n, dtype=bool)
    for part_codes, _, null_code, _ in parts:
        if null_code >= 0:
            null |= part_codes == null_code
    codes = np.where(null, -1, codes)
    return codes[:n_left], codes[n_left:], len(first_rows)


def joint_column(left: Column, right: Column) -> Column:
    """``left`` then ``right`` as one key column under Python equality.
    Same-typed columns concatenate; mixed types become an object column
    of Python values (exact: an INT above 2**53 never equals a FLOAT it
    rounds to)."""
    if left.sql_type is right.sql_type:
        return Column.concat(left.name, [left, right])
    values = np.empty(len(left) + len(right), dtype=object)
    values[:] = left.to_list() + right.to_list()
    return Column.from_numpy(left.name, SqlType.TEXT, values)


def encode_objects(
    values: np.ndarray, limit: Optional[int] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(codes, first_rows)`` of an object array in one dict pass, or
    None at the first chunk after which it has seen more than ``limit``
    distinct values.  No governor charges: a column's dictionary is not
    an operator."""
    index: Dict[Any, int] = {}
    codes = np.empty(len(values), dtype=np.int64)
    for start in range(0, len(values), CHUNK):
        stop = start + CHUNK
        _encode_chunk(values, codes, index, start, stop)
        if limit is not None and len(index) > limit:
            return None
    return codes, _first_rows(codes)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _chunks(n: int, charge: int) -> Iterable[Tuple[int, int]]:
    """Chunks of ``range(n)``: the first ``charge`` rows governed."""
    yield from guarded_chunks(charge, CHUNK)
    for start in range(charge, n, CHUNK):
        yield start, min(start + CHUNK, n)


def _encode_chunk(values, codes, index, start: int, stop: int) -> None:
    setdefault = index.setdefault
    # len(index) is evaluated before setdefault inserts: a new value's code.
    codes[start:stop] = [
        setdefault(v, len(index)) for v in values[start:stop].tolist()
    ]


def _key_parts(
    columns: Sequence[Column], n: int, chunks: Iterable[Tuple[int, int]]
) -> List[_Part]:
    """Per-column codes.  Object columns without a cached dictionary
    are encoded chunk by chunk as ``chunks`` is consumed (that is where
    the governor's checks land); numeric ones in one ``np.unique``."""
    parts: List[Optional[_Part]] = []
    pending = []
    for col in columns:
        if col.sql_type in _NUMERIC:
            parts.append(_numeric_part(col))
            continue
        cached = col.dictionary(compute=False)
        if cached is not None:
            codes, values = cached
            parts.append((codes, len(values), _null_code(values), True))
            continue
        parts.append(None)
        pending.append((len(parts) - 1, col.numpy(), np.empty(n, np.int64), {}))
    for start, stop in chunks:
        for _, values, codes, index in pending:
            _encode_chunk(values, codes, index, start, stop)
    for slot, _, codes, index in pending:
        parts[slot] = (codes, len(index), index.get(None, -1), True)
    return parts


def _numeric_part(col: Column) -> _Part:
    data, null = col.numpy(), col.null_mask()
    regular = ~null
    nan = None
    if col.sql_type is SqlType.FLOAT:
        nan = np.isnan(data) & regular
        regular &= ~nan
    uniq, inverse = np.unique(data[regular], return_inverse=True)
    codes = np.empty(len(data), dtype=np.int64)
    codes[regular] = inverse
    k, null_code = len(uniq), -1
    if null.any():
        null_code = k
        codes[null] = k
        k += 1
    if nan is not None and nan.any():  # every NaN is a key of its own
        count = int(nan.sum())
        codes[nan] = np.arange(k, k + count)
        k += count
    return codes, k, null_code, False


def _null_code(values: np.ndarray) -> int:
    for code, value in enumerate(values.tolist()):
        if value is None:
            return code
    return -1


def _combine(parts: List[_Part], n: int) -> Tuple[np.ndarray, np.ndarray]:
    if not parts:
        return np.zeros(n, dtype=np.int64), np.arange(min(n, 1), dtype=np.int64)
    if len(parts) == 1 and parts[0][3]:
        codes = parts[0][0]
        return codes, _first_rows(codes)
    codes, k = parts[0][0], parts[0][1]
    for more, k_more, _, _ in parts[1:]:
        if k * k_more >= 2 ** 62:  # keep the mixed radix inside int64
            _, codes = np.unique(codes, return_inverse=True)
            k = int(codes.max()) + 1
        codes = codes * k_more + more
        k *= k_more
    return _first_seen(codes)


def _first_seen(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Renumber arbitrary codes densely in order of first occurrence."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order].astype(np.int64)


def _first_rows(codes: np.ndarray) -> np.ndarray:
    """First row of each code of first-seen-numbered ``codes``: the rows
    where the running maximum steps up."""
    if not len(codes):
        return np.empty(0, dtype=np.int64)
    top = np.maximum.accumulate(codes)
    return np.flatnonzero(np.diff(top, prepend=-1))
