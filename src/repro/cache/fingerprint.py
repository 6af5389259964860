"""Shared identity derivation for every cache tier.

Each cache in the system — the compiled-trace cache, the plan cache, the
UDF memoization cache, and the query result cache — needs a notion of
"the same thing".  Deriving those identities in one module guarantees the
tiers can never disagree: a plan-cache key embeds the same normalized SQL
fingerprint the result cache uses, a memo key embeds the same definition
version the result cache checks, and the trace cache's structural key is
produced by the same function the fusion blocklist consults.

All fingerprints are deterministic across processes (no ``id()``, no
``hash()`` randomization).  Definitions, SQL and configurations are
keyed by SHA-1 digests over canonical reprs.  UDF input values (the memo
key) are keyed by a 128-bit BLAKE2b digest over the typed buffers a
column already holds, with a tagged-repr fallback for everything else
(see :func:`value_fingerprint`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.column import Column

__all__ = [
    "digest",
    "normalize_sql",
    "sql_fingerprint",
    "config_fingerprint",
    "definition_fingerprint",
    "trace_key",
    "value_fingerprint",
    "statement_tables",
    "written_tables",
]


def digest(payload: Any) -> str:
    """A short stable hex digest of an arbitrary canonicalizable value."""
    return hashlib.sha1(_canonical(payload).encode("utf-8")).hexdigest()[:16]


def _canonical(value: Any) -> str:
    """A deterministic textual form (dict order normalized, enums by
    name, callables by code identity rather than object identity)."""
    if isinstance(value, dict):
        items = sorted((str(k), _canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if callable(value):
        return _callable_token(value)
    return repr(value)


def _callable_token(func: Any) -> str:
    """Identity of a callable by *content* (bytecode + consts + the
    values it closes over), so a re-registered function with a changed
    body or closure fingerprints differently while a byte-identical
    redefinition does not."""
    code = getattr(func, "__code__", None)
    if code is None:
        # Classes (aggregate UDFs): token over their method codes.
        parts: List[str] = [getattr(func, "__name__", type(func).__name__)]
        for attr in ("__init__", "step", "final", "__call__"):
            method = getattr(func, attr, None)
            method_code = getattr(method, "__code__", None)
            if method_code is not None:
                parts.append(_code_token(method_code))
        return "<class:" + "|".join(parts) + ">"
    cells = []
    for cell in getattr(func, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # an empty cell
            value = None
        # A closed-over function by its code only: closures may be cyclic.
        value_code = getattr(value, "__code__", None)
        cells.append(repr(value) if value_code is None else _code_token(value_code))
    return "<fn:" + _code_token(code) + "".join(f"|{c}" for c in cells) + ">"


def _code_token(code: Any) -> str:
    consts = tuple(
        _code_token(c) if hasattr(c, "co_code") else repr(c)
        for c in code.co_consts
    )
    return hashlib.sha1(
        (repr(code.co_code) + repr(consts) + repr(code.co_names)).encode()
    ).hexdigest()[:12]


# ----------------------------------------------------------------------
# SQL and configuration identity
# ----------------------------------------------------------------------


def normalize_sql(statement: Any) -> str:
    """Canonical SQL text: parse + re-print, so formatting, case of
    keywords, and redundant whitespace cannot split cache entries.

    Accepts SQL text or an already-parsed statement.  Unparseable text
    falls back to whitespace-collapsed form (still deterministic)."""
    from ..sql import ast_nodes as ast
    from ..sql.parser import parse
    from ..sql.printer import to_sql

    if isinstance(statement, ast.Node):
        return to_sql(statement)
    try:
        return to_sql(parse(statement))
    except Exception:
        return " ".join(str(statement).split())


def sql_fingerprint(statement: Any) -> str:
    """Fingerprint of the normalized SQL text."""
    return digest(normalize_sql(statement))


def config_fingerprint(config: Any) -> str:
    """Fingerprint of a :class:`~repro.core.config.QFusorConfig` (or any
    dataclass-like object): every public field participates, so two
    QFusor instances with different switches never share entries."""
    fields = getattr(config, "__dataclass_fields__", None)
    if fields is not None:
        payload = {name: getattr(config, name) for name in fields}
    else:
        payload = {
            k: v for k, v in vars(config).items() if not k.startswith("_")
        }
    return digest(payload)


def definition_fingerprint(definition: Any) -> str:
    """Content identity of a UDF definition: name, kind, signature, and
    the *bytecode* of its callable — a re-registered UDF with a changed
    body fingerprints differently, driving the version bump."""
    return digest(
        (
            definition.name,
            str(definition.kind),
            repr(definition.signature),
            definition.out_columns,
            definition.strict,
            definition.deterministic,
            definition.func,
        )
    )


# ----------------------------------------------------------------------
# Trace identity (the compiled-trace cache + fusion blocklist)
# ----------------------------------------------------------------------


def trace_key(signature_key: Iterable) -> Tuple:
    """The canonical structural identity of a fused pipeline.

    Both the :class:`~repro.jit.cache.TraceCache` and the fusion
    blocklist derive their keys through this function, so a blocklisted
    section and its cached trace can never disagree on identity."""
    return tuple(signature_key)


# ----------------------------------------------------------------------
# Value identity (the UDF memoization cache)
# ----------------------------------------------------------------------


#: Separator of the one-string form of an all-``str`` column.
_SEP = "\x1f"


def value_fingerprint(values: Any) -> str:
    """128-bit digest of a batch of UDF input values (columns or scalars).

    A list or tuple is an argument list: its length is hashed, then each
    argument.  A :class:`~repro.storage.Column` is keyed by the buffers
    it holds, tagged with its SQL type and length:

    * INT/FLOAT/BOOL: the numpy bytes (NULL slots zeroed, since they hold
      garbage) plus the packed null mask;
    * TEXT/JSON with a cached dictionary (:meth:`Column.dictionary`):
      its int64 codes plus its distinct values, ``D``-tagged — no pass
      over the rows' strings.  The same rows without a cached dictionary
      key differently: a memo miss, never a wrong hit;
    * other TEXT/JSON whose values are all ``str``: one UTF-8
      ``"\\x1f"``-join, used only when it holds exactly ``len - 1``
      separators, so no value contained one.

    Every other value (a per-row scalar argument, an object column holding
    NULLs or non-``str`` values) falls back to tagged reprs.  The reprs
    keep dict insertion order on purpose: a deterministic UDF may answer
    differently for ``{a, b}`` and ``{b, a}``."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(values, (list, tuple)):
        h.update(b"A%d|" % len(values))
        for value in values:
            _hash_value(h, value)
    else:
        _hash_value(h, values)
    return h.hexdigest()


def _hash_value(h: Any, value: Any) -> None:
    if not isinstance(value, Column):
        _hash_part(h, b"R", repr(value).encode("utf-8", "surrogatepass"))
        return
    data = value.numpy()
    tag = b"C%s:%d:" % (value.sql_type.name.encode(), len(data))
    if data.dtype != object:
        null = value.null_mask()
        if null.any():
            data = data.copy()
            data[null] = 0
        h.update(tag)
        h.update(np.ascontiguousarray(data))
        h.update(np.packbits(null))
        return
    found = value.dictionary(compute=False)
    if found is not None:
        codes, values = found
        h.update(tag + b"D")
        h.update(np.ascontiguousarray(codes, dtype=np.int64))
        _hash_objects(h, b"V%d:" % len(values), values.tolist())
        return
    _hash_objects(h, tag, data.tolist())


def _hash_objects(h: Any, tag: bytes, items: List[Any]) -> None:
    """The values of an object array: one ``"\\x1f"``-join when they
    are all ``str`` and hold no separator, else tagged reprs."""
    try:
        joined = _SEP.join(items)
    except TypeError:  # a NULL or a non-str value
        joined = None
    if joined is not None and joined.count(_SEP) == len(items) - 1:
        _hash_part(h, tag + b"S", joined.encode("utf-8", "surrogatepass"))
        return
    # Tagged reprs, framed by their lengths.
    reprs = list(map(repr, items))
    h.update(tag + b"R")
    h.update(np.fromiter(map(len, reprs), dtype=np.int64, count=len(reprs)))
    h.update("".join(reprs).encode("utf-8", "surrogatepass"))


def _hash_part(h: Any, tag: bytes, payload: bytes) -> None:
    """One variable-length part, framed by its tag and byte length."""
    h.update(b"%s%d|" % (tag, len(payload)))
    h.update(payload)


# ----------------------------------------------------------------------
# Statement analysis (tables a query reads / a DML statement writes)
# ----------------------------------------------------------------------


def statement_tables(statement: Any) -> Optional[List[str]]:
    """Lower-cased base-table names a SELECT reads, or ``None`` when the
    statement's reads cannot be enumerated (conservatively uncacheable).

    CTE names defined by the statement itself are excluded — they are
    not base tables and carry no snapshot epoch."""
    from ..sql import ast_nodes as ast

    if not isinstance(statement, ast.Select):
        return None
    names: List[str] = []
    ctes: set = set()

    def walk_select(select: ast.Select) -> None:
        for cte_name, cte in select.ctes:
            ctes.add(cte_name.lower())
            walk_select(cte)
        for item in select.from_items:
            walk_item(item)
        if select.set_op is not None:
            walk_select(select.set_op.right)

    def walk_item(item: ast.FromItem) -> None:
        if isinstance(item, ast.TableRef):
            names.append(item.name.lower())
        elif isinstance(item, ast.SubqueryRef):
            walk_select(item.query)
        elif isinstance(item, ast.TableFunctionRef):
            for query in item.subquery_args:
                walk_select(query)
        elif isinstance(item, ast.Join):
            walk_item(item.left)
            walk_item(item.right)

    walk_select(statement)
    seen = []
    for name in names:
        if name not in ctes and name not in seen:
            seen.append(name)
    return seen


def written_tables(statement: Any) -> List[str]:
    """Lower-cased table names a DML/DDL statement writes (empty for
    reads)."""
    from ..sql import ast_nodes as ast

    if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
        return [statement.table.lower()]
    if isinstance(statement, (ast.CreateTableAs, ast.DropTable)):
        return [statement.name.lower()]
    return []
