"""Batch-at-a-time UDF kernels over typed buffers.

The interpreted scalar path pays four boundary conversions *per value*
(engine→C, C→Python, Python→C, C→engine) plus a per-value ``coerce`` when
rebuilding the result column — on scan-heavy UDFBench queries that
overhead dwarfs the UDF bodies themselves.  A kernel replaces the
per-row machinery with one pass:

- inputs cross the boundary **once per column** (TEXT values are already
  the ``str`` the UDF wants; JSON still pays its real per-value serde
  work, exactly as the classic path does),
- the UDF runs in an arity-specialized C-speed ``map``/listcomp with
  strict-NULL skipping,
- the result becomes a trusted :class:`~repro.columnar.buffer.BufferPage`
  via one type scan instead of per-value ``coerce``,
- governance checkpoints fire between ``morsel_size`` chunks, so
  deadlines/cancellation/budgets interrupt mid-batch like before.

User UDFs and fused scalar traces alike: a trace's ``definition.func``
is its fused scalar function, mapped here as any user UDF is, so its
compiled per-row batch loop runs only when the kernel deopts.

**By value.**  A UDF that may be evaluated by value
(:func:`repro.cache.memo.by_value`: annotated deterministic, and every
origin of a fused trace too) over one TEXT/JSON column with a
dictionary (:meth:`Column.dictionary`) runs once per distinct value and
the results are gathered by code; a TEXT/JSON result keeps its own
deduplicated dictionary for the next operator (``factorize`` takes its
codes).  The dictionary holds only values its rows hold, so the values
are a subset of the calls the row loop would make.

**Table UDFs.**  :func:`table_batch` runs a table UDF's relation- or
expand-mode batch the same way: each input column crosses once, each
yielded row's fields are appended to one list per output (the rows
themselves are not kept), and each output column crosses back once.
Relation mode hands ``func(rows, *const_args)`` a generator over all
input rows.  Expand mode drives a fused stream trace (one with
a ``table_expand`` entry) once over all rows: its loop yields a row's
outputs before it pulls the next row, so each output's lineage is the
index of the last input row pulled, and a ``DistinctStage`` set spans
the batch exactly as in the trace's own loop.  Any other table UDF (a
user UDF, a TF8 trace) is called as ``func(iter([row]), *const_args)``
once per row, as its wrapper does.  Output field ``j`` of a yielded row
is read as ``r[j]``: a short row raises (and so deopts), a long row's
extra fields are ignored.

Fallback ladder: anything the kernel cannot vouch for — armed fault
injection, a UDF body raising (on a row or on a distinct value), an
untrusted result type, a result that does not serialize — returns
``None`` and the caller re-executes the whole batch on the classic
per-row path, which owns coercion, row-error policies, reinterpret
replays and fault semantics.  The kernel is a pure fast path; it never changes
results or error behaviour.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.keys import encode_objects
from ..errors import QueryInterrupt
from ..jit.codegen import _record_fused_batch
from ..obs import OBS
from ..resilience.governor import checkpoint
from ..resilience.runtime import FAULTS as _FAULTS
from ..storage import serde
from ..storage.column import Column
from ..types import SqlType
from ..udf import boundary
from ..udf.definition import UdfDefinition, UdfKind

__all__ = [
    "eligible", "scalar_batch", "table_eligible", "table_batch",
    "aggregate_eligible", "aggregate_batch",
]

_OBJECT_TYPES = (SqlType.TEXT, SqlType.JSON)


def eligible(definition: UdfDefinition) -> bool:
    """Can this UDF's batches run on the kernel path?  Armed fault
    injection needs the classic path's per-row fire points."""
    return definition.kind is UdfKind.SCALAR and not _FAULTS.armed


def _run_chunk(
    func: Callable, inputs: Sequence[List[Any]], strict: bool,
    start: int, stop: int,
) -> List[Any]:
    """Apply ``func`` over rows ``[start, stop)`` of the input lists."""
    chunks = [col[start:stop] for col in inputs]
    if not strict:
        return list(map(func, *chunks))
    if len(chunks) == 1:
        (l0,) = chunks
        if None not in l0:
            return list(map(func, l0))
        return [None if v is None else func(v) for v in l0]
    if any(None in c for c in chunks):
        return [
            None if any(v is None for v in row) else func(*row)
            for row in zip(*chunks)
        ]
    return list(map(func, *chunks))


def scalar_batch(
    definition: UdfDefinition,
    inputs: Sequence[Column],
    size: int,
    chunk: int = 4096,
    by_value: bool = False,
) -> Optional[Column]:
    """Run one scalar batch on the kernel path; ``by_value`` says the
    UDF may run once per distinct value (see the module docstring).

    Returns the result column, or ``None`` when the kernel must deopt
    (the caller re-runs the batch classically).  Governed interrupts
    propagate — a deopt must never swallow a cancellation.
    """
    found = None
    if by_value and len(inputs) == 1 and inputs[0].sql_type in _OBJECT_TYPES:
        found = inputs[0].dictionary()
    if found is None:
        column = _map_batch(definition, inputs, size, chunk)
    else:
        column = _map_dictionary(definition, inputs[0], found, chunk)
    if column is not None and definition.is_fused and OBS.metrics:
        # The histogram the trace's own batch loop records.
        _record_fused_batch(definition.name, size)
    return column


def _map_dictionary(
    definition: UdfDefinition, column: Column, found, chunk: int
) -> Optional[Column]:
    """The UDF over the distinct values of ``column``, gathered by code."""
    codes, values = found
    distinct = Column.from_numpy(column.name, column.sql_type, values)
    out = _map_batch(definition, [distinct], len(values), chunk)
    if out is None:
        return None
    if out.sql_type not in _OBJECT_TYPES:
        return out.take(codes)
    results = out.numpy()
    out_codes, first_rows = encode_objects(results)
    return Column.from_dictionary(
        out.name, out.sql_type, out_codes[codes], results[first_rows]
    )


def _map_batch(
    definition: UdfDefinition,
    inputs: Sequence[Column],
    size: int,
    chunk: int,
) -> Optional[Column]:
    """The UDF over every row of ``inputs``, or ``None`` to deopt."""
    try:
        loaded = [boundary.column_to_python_batch(col) for col in inputs]
        func = definition.func
        strict = definition.strict
        if not loaded:
            # Zero-arity scalar: one call per row.
            out: List[Any] = []
            for start in range(0, size, chunk):
                stop = min(start + chunk, size)
                out.extend(func() for _ in range(stop - start))
                checkpoint()
        else:
            out = []
            for start in range(0, size, chunk):
                out.extend(
                    _run_chunk(func, loaded, strict, start,
                               min(start + chunk, size))
                )
                checkpoint()
    except QueryInterrupt:
        raise
    except Exception:
        return None
    return boundary.python_batch_to_column(
        definition.name, definition.signature.return_types[0], out
    )


# ----------------------------------------------------------------------
# Table UDFs
# ----------------------------------------------------------------------


def table_eligible(definition: UdfDefinition) -> bool:
    return definition.kind is UdfKind.TABLE and not _FAULTS.armed


def _pull(loaded: Sequence[List[Any]], size: int, chunk: int,
          starts: Optional[List[int]], out0: List[Any]) -> Iterator[Tuple]:
    """The input rows as tuples, with a governance checkpoint every
    ``chunk`` rows; unless ``starts`` is ``None``, ``len(out0)`` is
    appended to it before each row is handed out."""
    for start in range(0, size, chunk):
        checkpoint()
        stop = min(start + chunk, size)
        rows = (
            zip(*[col[start:stop] for col in loaded]) if loaded
            else repeat((), stop - start)
        )
        if starts is None:
            yield from rows
        else:
            mark = starts.append
            for row in rows:
                mark(len(out0))
                yield row


def _drain(out_rows: Iterator[Any], fields: List[List[Any]]) -> None:
    """Append field ``j`` of every row ``out_rows`` yields to
    ``fields[j]``.  Rows are not kept: a batch of live tuples would wake
    the cycle collector over the whole heap."""
    if len(fields) == 1:
        # Most table UDFs have one output; the loop without the inner
        # per-field loop reads Q6 ~29 ms warm against ~33.
        add = fields[0].append
        for r in out_rows:
            add(r[0])
        return
    adds = [(field.append, j) for j, field in enumerate(fields)]
    for r in out_rows:
        for add, j in adds:
            add(r[j])


def _lineage(starts: List[int], total: int) -> List[int]:
    """Each of ``total`` outputs' input row: the last row pulled before
    it was yielded (row 0 for any yielded before the first pull), where
    ``starts[i]`` is the output count when row ``i`` was pulled."""
    counts = np.diff(np.asarray(starts[1:] + [total], dtype=np.int64),
                     prepend=0)
    return np.repeat(np.arange(len(counts)), counts).tolist()


def table_batch(
    definition: UdfDefinition,
    inputs: Sequence[Column],
    size: int,
    const_args: Sequence[Any],
    expand: bool,
    chunk: int = 4096,
) -> Optional[Tuple[Optional[List[int]], List[Column]]]:
    """Run one relation- or expand-mode table batch on the kernel path
    (see the module docstring).

    Returns ``(lineage, columns)`` — ``lineage`` is ``None`` in relation
    mode — or ``None`` when the kernel must deopt.  Governed interrupts
    propagate.
    """
    func = definition.func
    trace = expand and "table_expand" in definition.entries
    fields: List[List[Any]] = [[] for _ in definition.signature.return_types]
    starts: Optional[List[int]] = [] if expand else None
    try:
        loaded = [boundary.column_to_python_batch(col) for col in inputs]
        rows = _pull(loaded, size, chunk, starts, fields[0])
        if not expand:
            out_rows = func(rows, *const_args)
        elif trace:
            out_rows = func(rows)
        else:
            out_rows = chain.from_iterable(
                func(iter([row]), *const_args) for row in rows
            )
        _drain(out_rows, fields)
    except QueryInterrupt:
        raise
    except Exception:
        return None
    columns = []
    for name, sql_type, values in zip(
        definition.out_columns, definition.signature.return_types, fields
    ):
        column = boundary.python_batch_to_column(name, sql_type, values)
        if column is None:
            return None
        columns.append(column)
    if trace and OBS.metrics:
        _record_fused_batch(definition.name, size)
    lineage = None if starts is None else _lineage(starts, len(fields[0]))
    return lineage, columns


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------


def aggregate_eligible(definition: UdfDefinition) -> bool:
    return definition.kind is UdfKind.AGGREGATE and not _FAULTS.armed


def aggregate_batch(
    definition: UdfDefinition,
    inputs: Sequence[Column],
    size: int,
    group_ids: Sequence[int],
    num_groups: int,
    chunk: int = 4096,
) -> Optional[List[Any]]:
    """Run one aggregate batch on the kernel path.

    Mirrors the generated aggregate wrapper — init/step/final over
    ``aggr_group_data``, a strict one skipping rows whose arguments are
    *all* NULL —
    but crosses the boundary per column instead of per value.  Returns
    one engine-side value per group, or ``None`` to deopt (aggregates
    have no row-level policies: the classic re-run raises the wrapped
    error exactly as before).
    """
    try:
        loaded = [boundary.column_to_python_batch(col) for col in inputs]
        aggrs = [definition.func() for _ in range(num_groups)]
        step = [a.step for a in aggrs]
        skips_null = definition.skips_null_rows()
        if len(loaded) == 1:
            (l0,) = loaded
            has_null = skips_null and None in l0
            for start in range(0, size, chunk):
                stop = min(start + chunk, size)
                if has_null:
                    for i in range(start, stop):
                        v = l0[i]
                        if v is not None:
                            step[group_ids[i]](v)
                else:
                    for i in range(start, stop):
                        step[group_ids[i]](l0[i])
                checkpoint()
        else:
            for start in range(0, size, chunk):
                for i in range(start, min(start + chunk, size)):
                    row = [col[i] for col in loaded]
                    if skips_null and all(v is None for v in row):
                        continue
                    step[group_ids[i]](*row)
                checkpoint()
        finals = [a.final() for a in aggrs]
    except QueryInterrupt:
        raise
    except Exception:
        return None
    # One Python→engine crossing for the per-group results; classic's
    # encode→decode is the identity for TEXT, JSON keeps its real serde.
    boundary.counters.python_to_c += 1
    boundary.counters.c_to_engine += 1
    out_type = definition.signature.return_types[0]
    if out_type is SqlType.JSON:
        boundary.counters.serializations += sum(
            1 for v in finals if v is not None
        )
        return serde.serialize_values(finals)
    return finals
