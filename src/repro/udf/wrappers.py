"""Wrapper functions (paper section 4.1).

A registered UDF's *wrapper function* (a) converts engine C data into
Python objects, (b) calls the user's UDF, and (c) converts results back
into C data.  The paper generates it with the same mechanism that
generates the loop-fused functions of UDF pipelines, and so does this
reproduction: a wrapper is the one-stage fused pipeline whose stage
calls the UDF, emitted by :func:`repro.jit.codegen.generate_wrapper`.
Its source is kept on the wrapper object for inspection, mirroring the
paper's examples.  A fused trace compiles its own batch entries with the
trace (``UdfDefinition.entries``); a wrapper compiles the entry of one
call mode on the first call that needs it, in the registry's process or
in a worker's.  With a columnar policy attached, scalar, aggregate and
table batches run on :mod:`repro.columnar.kernels` instead, so a
wrapper compiles there only when a kernel deopts.

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

from typing import Callable, Dict, Tuple

from .definition import UdfDefinition

__all__ = ["GeneratedWrapper", "build_wrapper"]


class GeneratedWrapper:
    """A registered UDF's wrapper: the batch entry of each call mode,
    generated and compiled on its first use.  A table UDF has two modes
    (relation and expand) and a call needs only one, so each is its own
    source.  Two threads may both build an entry; the build is pure, so
    either result serves."""

    __slots__ = ("udf", "_built")

    def __init__(self, udf: UdfDefinition):
        self.udf = udf
        #: expand mode? -> (source, entry)
        self._built: Dict[bool, Tuple[str, Callable]] = {}

    def _build(self, expand: bool) -> Tuple[str, Callable]:
        built = self._built.get(expand)
        if built is None:
            from ..jit.codegen import generate_wrapper

            built = self._built[expand] = generate_wrapper(self.udf, expand)
        return built

    @property
    def entry(self) -> Callable:
        """The entry of the UDF's own call kind (relation mode for a
        table UDF)."""
        return self._build(False)[1]

    @property
    def source(self) -> str:
        """The generated source of :attr:`entry`."""
        return self._build(False)[0]

    def __call__(self, *args, **kwargs):
        return self.entry(*args, **kwargs)

    def entry_for(self, kind: str) -> Callable:
        """The entry point of one batch call kind (``scalar``,
        ``aggregate``, ``table`` or ``table_expand``)."""
        return self._build(kind == "table_expand")[1]


def build_wrapper(udf: UdfDefinition) -> GeneratedWrapper:
    """The wrapper for ``udf``; nothing compiles until an entry is used."""
    return GeneratedWrapper(udf)
