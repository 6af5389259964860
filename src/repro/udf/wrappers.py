"""Wrapper-function generation (paper section 4.1).

When a UDF is registered, the registration mechanism generates a *wrapper
function* that (a) converts engine C data into Python objects, (b) calls
the user's UDF, and (c) converts results back into C data.  The wrapper is
generated as Python source (kept on the wrapper object for inspection,
mirroring the paper's examples), compiled, and invoked by the engine's
executors.

Semantics implemented here:

* Scalar UDFs are *strict*: a NULL in any argument yields NULL without
  invoking the UDF (PostgreSQL ``STRICT`` semantics).
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
  :class:`~repro.errors.UdfExecutionError` (section 5.3.2 robustness).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import UdfExecutionError
from ..types import SqlType
from . import boundary
from .definition import UdfDefinition, UdfKind

__all__ = ["GeneratedWrapper", "build_wrapper", "SourceBuilder"]


def _resilience_runtime():
    from ..resilience import runtime

    return runtime


class SourceBuilder:
    """Tiny helper for emitting correctly indented Python source."""

    INDENT = "    "

    def __init__(self):
        self._lines: List[str] = []
        self._depth = 0

    def line(self, text: str = "") -> "SourceBuilder":
        self._lines.append(self.INDENT * self._depth + text if text else "")
        return self

    def lines(self, texts: Sequence[str]) -> "SourceBuilder":
        for text in texts:
            self.line(text)
        return self

    def indent(self) -> "SourceBuilder":
        self._depth += 1
        return self

    def dedent(self) -> "SourceBuilder":
        self._depth -= 1
        return self

    def block(self, header: str) -> "_Block":
        self.line(header)
        return _Block(self)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


class _Block:
    def __init__(self, builder: SourceBuilder):
        self._builder = builder

    def __enter__(self):
        self._builder.indent()
        return self._builder

    def __exit__(self, *exc_info):
        self._builder.dedent()
        return False


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


def build_wrapper(udf: UdfDefinition) -> GeneratedWrapper:
    """Generate, compile, and return the wrapper for ``udf``."""
    if udf.kind is UdfKind.SCALAR:
        return _build_scalar_wrapper(udf)
    if udf.kind is UdfKind.AGGREGATE:
        return _build_aggregate_wrapper(udf)
    return _build_table_wrapper(udf)


def _base_namespace(udf: UdfDefinition) -> Dict[str, Any]:
    runtime = _resilience_runtime()
    from ..resilience.governor import checkpoint

    return {
        "c_to_python": boundary.c_to_python,
        "python_to_c": boundary.python_to_c,
        "IN_TYPES": tuple(udf.signature.arg_types),
        "OUT_TYPES": tuple(udf.signature.return_types),
        "OUT_TYPE": udf.signature.return_types[0],
        "SqlType": SqlType,
        "UdfExecutionError": UdfExecutionError,
        # Resilience runtime: fault hook + row-level exception policies.
        "_FAULTS": runtime.FAULTS,
        "_rt_policy": runtime.policy,
        "_rt_row_error": runtime.handle_scalar_row_error,
        "_rt_expand_row_error": runtime.handle_expand_row_error,
        # Governance: cooperative cancellation checkpoint (near-free
        # when no governed context is active on this thread).
        "_gov_check": checkpoint,
        "_NAME": udf.name,
        "_NAMES": (udf.name,) + tuple(udf.fused_from),
        "_CTX": "fused" if udf.is_fused else "interp",
    }


def _compile(source: str, namespace: Dict[str, Any], entry_name: str) -> Callable:
    code = compile(source, f"<wrapper:{entry_name}>", "exec")
    exec(code, namespace)
    return namespace[entry_name]


# ----------------------------------------------------------------------
# Scalar
# ----------------------------------------------------------------------


def _build_scalar_wrapper(udf: UdfDefinition) -> GeneratedWrapper:
    arity = udf.arity
    builder = SourceBuilder()
    if udf.scalar_batch_func is not None:
        # Fully JIT-generated wrapper from the fusion codegen: conversions
        # run inside the fused loop itself (section 4.1).
        with builder.block(f"def wrapper_{udf.name}(c_inputs, size):"):
            builder.line(
                f'"""JIT loop-fused wrapper for fused scalar UDF '
                f'{udf.name!r}."""'
            )
            with builder.block("try:"):
                builder.line("return batch_udf(c_inputs, size)")
            with builder.block("except UdfExecutionError:"):
                builder.line("raise")
            with builder.block("except Exception as exc:"):
                builder.line(
                    f"raise UdfExecutionError({udf.name!r}, exc) from exc"
                )
        source = builder.source()
        namespace = _base_namespace(udf)
        namespace["batch_udf"] = udf.scalar_batch_func
        entry = _compile(source, namespace, f"wrapper_{udf.name}")
        return GeneratedWrapper(udf, source, entry)
    null_check = " or ".join(f"col{i}[i] is None" for i in range(arity))
    call_args = ", ".join(f"v{i}" for i in range(arity))
    with builder.block(f"def wrapper_{udf.name}(c_inputs, size):"):
        builder.line(f'"""Auto-generated wrapper for scalar UDF {udf.name!r}."""')
        for i in range(arity):
            builder.line(f"col{i} = c_inputs[{i}]")
        builder.line("result = [None] * size")
        builder.line("_policy = _rt_policy()")
        with builder.block("for i in range(size):"):
            builder.line("if not (i & 255): _gov_check()")
            if arity and udf.strict:
                with builder.block(f"if {null_check}:"):
                    builder.line("continue")
            with builder.block("try:"):
                with builder.block("if _FAULTS.armed:"):
                    builder.line("_FAULTS.injector.fire_row(_NAMES, i, _CTX)")
                for i in range(arity):
                    builder.line(f"v{i} = c_to_python(col{i}[i], IN_TYPES[{i}])")
                builder.line(f"r = udf({call_args})")
                builder.line("result[i] = python_to_c(r, OUT_TYPE)")
            with builder.block("except Exception as exc:"):
                builder.line(
                    f"result[i] = _rt_row_error(_NAME, _policy, exc, i, "
                    f"(lambda _i=i: wrapper_{udf.name}__retry(c_inputs, _i)))"
                )
        builder.line("return result")
    builder.line()
    with builder.block(f"def wrapper_{udf.name}__retry(c_inputs, i):"):
        builder.line('"""Single-row replay for the reinterpret policy."""')
        for i in range(arity):
            builder.line(f"col{i} = c_inputs[{i}]")
        if arity and udf.strict:
            with builder.block(f"if {null_check}:"):
                builder.line("return None")
        for i in range(arity):
            builder.line(f"v{i} = c_to_python(col{i}[i], IN_TYPES[{i}])")
        builder.line(f"return python_to_c(udf({call_args}), OUT_TYPE)")
    source = builder.source()
    namespace = _base_namespace(udf)
    namespace["udf"] = udf.func
    entry = _compile(source, namespace, f"wrapper_{udf.name}")
    return GeneratedWrapper(udf, source, entry)


# ----------------------------------------------------------------------
# Aggregate
# ----------------------------------------------------------------------


def _build_aggregate_wrapper(udf: UdfDefinition) -> GeneratedWrapper:
    arity = udf.arity
    builder = SourceBuilder()
    with builder.block(
        f"def wrapper_{udf.name}(c_inputs, size, group_ids, num_groups):"
    ):
        builder.line(
            f'"""Auto-generated wrapper for aggregate UDF {udf.name!r} '
            f'(init-step-final over aggr_group_data)."""'
        )
        for i in range(arity):
            builder.line(f"col{i} = c_inputs[{i}]")
        with builder.block("try:"):
            builder.line("aggrs = [agg_class() for _ in range(num_groups)]")
        with builder.block("except Exception as exc:"):
            builder.line(f"raise UdfExecutionError({udf.name!r}, exc) from exc")
        # A failed step() leaves partial aggregate state that cannot be
        # reconciled, so row-level policies never apply here: aggregate
        # failures always raise (with the row) and recovery happens at
        # the query level through de-optimization.
        with builder.block("for i in range(size):"):
            builder.line("if not (i & 255): _gov_check()")
            if udf.skips_null_rows():
                null_check = " and ".join(
                    f"col{i}[i] is None" for i in range(arity)
                )
                with builder.block(f"if {null_check}:"):
                    builder.line("continue")
            with builder.block("try:"):
                with builder.block("if _FAULTS.armed:"):
                    builder.line("_FAULTS.injector.fire_row(_NAMES, i, _CTX)")
                for i in range(arity):
                    builder.line(f"v{i} = c_to_python(col{i}[i], IN_TYPES[{i}])")
                call_args = ", ".join(f"v{i}" for i in range(arity))
                builder.line(f"aggrs[group_ids[i]].step({call_args})")
            with builder.block("except UdfExecutionError:"):
                builder.line("raise")
            with builder.block("except Exception as exc:"):
                builder.line(
                    f"raise UdfExecutionError({udf.name!r}, exc, row=i) "
                    f"from exc"
                )
        with builder.block("try:"):
            builder.line(
                "return [python_to_c(a.final(), OUT_TYPE) for a in aggrs]"
            )
        with builder.block("except Exception as exc:"):
            builder.line(
                f"raise UdfExecutionError({udf.name!r}, exc, phase='final') "
                f"from exc"
            )
    source = builder.source()
    namespace = _base_namespace(udf)
    namespace["agg_class"] = udf.func
    entry = _compile(source, namespace, f"wrapper_{udf.name}")
    return GeneratedWrapper(udf, source, entry)


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------


def _build_table_wrapper(udf: UdfDefinition) -> GeneratedWrapper:
    # The input relation's arity and types are only known at query time
    # (the paper's ``*args`` model, section 4.2.3), so the wrapper receives
    # ``in_types`` at call time and decodes rows dynamically.
    num_out = len(udf.signature.return_types)
    out_names = ", ".join(f"out{i}" for i in range(num_out))

    builder = SourceBuilder()
    with builder.block("def _inp_datagen(c_inputs, size, in_types):"):
        builder.line(
            '"""Input generator: decodes one input row per iteration '
            'without materializing the input (section 4.2.3)."""'
        )
        builder.line("n = len(c_inputs)")
        with builder.block("for i in range(size):"):
            builder.line("if not (i & 255): _gov_check()")
            with builder.block("if _FAULTS.armed:"):
                builder.line("_FAULTS.injector.fire_row(_NAMES, i, _CTX)")
            builder.line(
                "yield tuple("
                "c_to_python(c_inputs[j][i], in_types[j]) for j in range(n))"
            )
    builder.line()

    with builder.block(
        f"def wrapper_{udf.name}(c_inputs, size, in_types, const_args):"
    ):
        builder.line(
            f'"""Auto-generated wrapper for table UDF {udf.name!r} '
            f'(relation mode)."""'
        )
        for i in range(num_out):
            builder.line(f"out{i} = []")
        with builder.block("try:"):
            with builder.block(
                "for row in udf(_inp_datagen(c_inputs, size, in_types), "
                "*const_args):"
            ):
                for i in range(num_out):
                    builder.line(
                        f"out{i}.append(python_to_c(row[{i}], OUT_TYPES[{i}]))"
                    )
        with builder.block("except UdfExecutionError:"):
            builder.line("raise")
        with builder.block("except Exception as exc:"):
            builder.line(f"raise UdfExecutionError({udf.name!r}, exc) from exc")
        builder.line(f"return [{out_names}]")
    builder.line()

    with builder.block(
        f"def wrapper_{udf.name}_expand(c_inputs, size, in_types, const_args):"
    ):
        builder.line(
            f'"""Auto-generated wrapper for table UDF {udf.name!r} '
            f'(expand mode, with row lineage)."""'
        )
        builder.line("lineage = []")
        for i in range(num_out):
            builder.line(f"out{i} = []")
        builder.line("n = len(c_inputs)")
        with builder.block("try:"):
            if udf.expand_batch_func is not None:
                # Fully JIT-generated wrapper: conversions live inside
                # the fused loop itself (section 4.1).
                builder.line(
                    "return batch_udf(c_inputs, size, in_types)"
                )
            else:
                builder.line("_policy = _rt_policy()")
                with builder.block("for i in range(size):"):
                    builder.line("if not (i & 255): _gov_check()")
                    with builder.block("try:"):
                        with builder.block("if _FAULTS.armed:"):
                            builder.line(
                                "_FAULTS.injector.fire_row(_NAMES, i, _CTX)"
                            )
                        builder.line(
                            "one_row = tuple("
                            "c_to_python(c_inputs[j][i], in_types[j]) "
                            "for j in range(n))"
                        )
                        with builder.block(
                            "for row in udf(iter([one_row]), *const_args):"
                        ):
                            builder.line("lineage.append(i)")
                            for i_out in range(num_out):
                                builder.line(
                                    f"out{i_out}.append(python_to_c("
                                    f"row[{i_out}], OUT_TYPES[{i_out}]))"
                                )
                    with builder.block("except Exception as _exc:"):
                        # Drop the failed row's partial outputs before
                        # applying the policy (lineage is non-decreasing).
                        with builder.block(
                            "while lineage and lineage[-1] == i:"
                        ):
                            builder.line("lineage.pop()")
                            for i_out in range(num_out):
                                builder.line(f"out{i_out}.pop()")
                        builder.line(
                            f"_rres = _rt_expand_row_error(_NAME, _policy, "
                            f"_exc, i, (lambda _i=i: "
                            f"wrapper_{udf.name}__retry_row("
                            f"c_inputs, _i, in_types, const_args)))"
                        )
                        with builder.block("if _rres is None:"):
                            builder.line("lineage.append(i)")
                            for i_out in range(num_out):
                                builder.line(f"out{i_out}.append(None)")
                        with builder.block("else:"):
                            with builder.block("for _row in _rres:"):
                                builder.line("lineage.append(i)")
                                for i_out in range(num_out):
                                    builder.line(
                                        f"out{i_out}.append(_row[{i_out}])"
                                    )
        with builder.block("except UdfExecutionError:"):
            builder.line("raise")
        with builder.block("except Exception as exc:"):
            builder.line(f"raise UdfExecutionError({udf.name!r}, exc) from exc")
        builder.line(f"return lineage, [{out_names}]")
    builder.line()

    with builder.block(
        f"def wrapper_{udf.name}__retry_row(c_inputs, i, in_types, const_args):"
    ):
        builder.line('"""Single-row replay for the reinterpret policy."""')
        builder.line("n = len(c_inputs)")
        builder.line(
            "one_row = tuple("
            "c_to_python(c_inputs[j][i], in_types[j]) for j in range(n))"
        )
        builder.line(
            f"return [tuple(python_to_c(row[k], OUT_TYPES[k]) "
            f"for k in range({num_out})) "
            f"for row in udf(iter([one_row]), *const_args)]"
        )

    source = builder.source()
    namespace = _base_namespace(udf)
    namespace["udf"] = udf.func
    namespace["batch_udf"] = udf.expand_batch_func
    entry = _compile(source, namespace, f"wrapper_{udf.name}")
    expand_entry = namespace[f"wrapper_{udf.name}_expand"]
    return GeneratedWrapper(udf, source, entry, expand_entry)
