"""Wrapper functions (paper section 4.1).

A registered UDF's *wrapper function* (a) converts engine C data into
Python objects, (b) calls the user's UDF, and (c) converts results back
into C data.  The paper generates it with the same mechanism that
generates the loop-fused functions of UDF pipelines, and so does this
reproduction: a wrapper is the one-stage fused pipeline whose stage
calls the UDF, emitted by :func:`repro.jit.codegen.generate_wrapper`.
Its source is kept on the wrapper object for inspection, mirroring the
paper's examples.  A fused trace compiles its own batch entries with the
trace (``UdfDefinition.entries``); the registry builds a wrapper on the
first call that needs one, and a worker process when the UDF is
installed in it.

Semantics of the generated loops:

* Scalar UDFs are *strict*: a NULL in any argument yields NULL without
  invoking the UDF (PostgreSQL ``STRICT`` semantics) and without firing
  its fault hook.
* Aggregate UDFs follow SQL semantics and skip rows whose arguments are
  all NULL (this is what makes ``SUM(CASE WHEN ... THEN 1 ELSE NULL END)``
  count matching rows).  A non-strict (fused) aggregate sees every row:
  its generated step computes the argument, which may map NULL inputs
  to a value (``CASE ... ELSE 0``), and skips a NULL argument itself.
* Table UDFs come in two modes: *relation* mode (the UDF consumes a whole
  input relation through a generator, FROM-clause usage) and *expand* mode
  (one input tuple at a time, multiple output rows per tuple, select-list
  usage — the paper's Expand variant), which also returns row lineage so
  sibling columns can be replicated.
* The UDF body runs inside try/except; failures re-raise as
  :class:`~repro.errors.UdfExecutionError` (section 5.3.2 robustness),
  or are resolved row by row by the active ``row_error_policy``.
"""

from __future__ import annotations

from typing import Callable, Optional

from .definition import UdfDefinition

__all__ = ["GeneratedWrapper", "build_wrapper"]


class GeneratedWrapper:
    """A compiled wrapper plus its generated source."""

    __slots__ = ("udf", "source", "entry", "expand_entry")

    def __init__(
        self,
        udf: UdfDefinition,
        source: str,
        entry: Callable,
        expand_entry: Optional[Callable] = None,
    ):
        self.udf = udf
        self.source = source
        self.entry = entry
        self.expand_entry = expand_entry

    def __call__(self, *args, **kwargs):
        return self.entry(*args, **kwargs)

    def entry_for(self, kind: str) -> Callable:
        """The entry point of one batch call kind (``scalar``,
        ``aggregate``, ``table`` or ``table_expand``)."""
        return self.expand_entry if kind == "table_expand" else self.entry


def build_wrapper(udf: UdfDefinition) -> GeneratedWrapper:
    """Generate, compile, and return the wrapper for ``udf``."""
    from ..jit.codegen import generate_wrapper

    return generate_wrapper(udf)
