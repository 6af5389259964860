"""Batch-at-a-time scalar UDF kernels over typed buffers.

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

Fallback ladder: anything the kernel cannot vouch for — armed fault
injection, a UDF body raising (on a row or on a distinct value), an
untrusted result type — returns ``None`` and the caller re-executes the
whole batch on the classic per-row path, which owns row-error policies
and fault semantics.  The kernel is a pure fast path; it never changes
results or error behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

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

__all__ = ["eligible", "scalar_batch", "aggregate_eligible", "aggregate_batch"]

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
