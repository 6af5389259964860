"""The one emitter of UDF batch loops: fused pipelines and wrappers.

A fused pipeline is described by a :class:`PipelineSpec`: named inputs,
a sequence of stages wired through variable names, and the output
variables.  :func:`generate_fused_udf` compiles the spec into a *new UDF
that itself follows the design specifications of section 4.2*, so the
ordinary registration mechanism (CREATE FUNCTION, the registry) applies
to fused UDFs unchanged — exactly the paper's architecture.

Section 4.1 says the mechanism that generates a registered UDF's wrapper
is the one that generates the loop-fused functions.  Here it is: a
registered UDF's wrapper (:func:`generate_wrapper`) is the one-stage
pipeline whose stage *calls* the UDF, emitted by the same batch-loop
emitters as a fused trace.  There is one emitter per entry kind —
scalar batch, aggregate batch, relation-mode table and expand-mode
table — and each owns the loop skeleton: the ``_gov_check()``
checkpoint every 256 rows, the ``fire_row`` fault hook, row-error
capture through :mod:`repro.resilience.runtime`, and the single-row
replay the ``reinterpret`` policy runs.

The fused UDF's type follows Table 2:

====================  ==========================  =================
pipeline content       result kind                 template(s)
====================  ==========================  =================
scalar stages only     scalar UDF                  TF1
ends in aggregate      aggregate UDF (class)       TF2, TF6, TF7
filter/distinct/table  table UDF (generator)       TF3, TF4, TF5
aggregate then table   table UDF w/ inner agg      TF8
====================  ==========================  =================

Loop fusion: all stages execute inside one loop body; simple scalar UDF
bodies are textually inlined (:mod:`repro.jit.inliner`), complex ones are
called directly through namespace bindings — either way no wrapper-layer
boundary crossing happens between stages.

NULL semantics are preserved: scalar stages are strict (NULL in, NULL
out, no call), filters drop rows whose predicate is NULL, and aggregate
steps skip NULL inputs — matching the unfused wrapper semantics so fusion
never changes results.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..errors import JitError, UdfExecutionError
from ..types import SqlType
from ..udf import boundary
from ..udf.definition import UdfDefinition, UdfKind
from ..udf.signature import UdfSignature
from .inliner import try_inline

__all__ = [
    "ScalarUdfStage", "ExprStage", "FilterStage", "TableUdfStage",
    "AggregateStage", "DistinctStage", "PipelineSpec", "FusedUdf",
    "generate_fused_udf", "generate_wrapper", "SourceBuilder",
]


def _record_fused_batch(name: str, size: int) -> None:
    """Once-per-batch metrics hook bound into generated wrappers."""
    from ..obs import DEFAULT_SIZE_BUCKETS, METRICS

    METRICS.histogram(
        "repro_fused_batch_rows", DEFAULT_SIZE_BUCKETS, udf=name
    ).observe(size)


class SourceBuilder:
    """Tiny helper for emitting correctly indented Python source."""

    INDENT = "    "

    def __init__(self):
        self._lines: List[str] = []
        self._depth = 0

    def line(self, text: str = "") -> None:
        self._lines.append(self.INDENT * self._depth + text if text else "")

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        self._depth -= 1

    @contextlib.contextmanager
    def block(self, header: str) -> Iterator["SourceBuilder"]:
        """Emit ``header`` and indent the body under it."""
        self.line(header)
        self.indent()
        yield self
        self.dedent()

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


# ----------------------------------------------------------------------
# Stage model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarUdfStage:
    """Apply a scalar UDF: ``out = udf(*args)``.

    When ``strict`` (default), any NULL argument yields NULL without a
    call.  A wrapper's stage is not: the wrapper skips the NULL rows of a
    strict UDF before its fault hook, and calls a non-strict one."""

    udf: UdfDefinition
    args: Tuple[str, ...]
    out: str
    strict: bool = True


@dataclass(frozen=True)
class ExprStage:
    """An offloaded relational scalar operation (case, arithmetic,
    comparison, is-null test) as a Python expression over variables.

    ``src`` references variables by name.  When ``strict`` (default), any
    NULL argument yields NULL without evaluating ``src``; CASE and IS
    NULL expressions set ``strict=False`` and handle NULLs inside
    ``src`` themselves.  ``bindings`` are extra names the source needs in
    the generated namespace (compiled LIKE regexes, cast helpers, ...).
    """

    src: str
    args: Tuple[str, ...]
    out: str
    strict: bool = True
    bindings: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class FilterStage:
    """An offloaded relational filter: rows where ``src`` is not truthy
    (or any argument is NULL) are dropped."""

    src: str
    args: Tuple[str, ...]
    bindings: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class TableUdfStage:
    """Apply a table UDF: consumes the stream of ``args`` tuples, emits
    ``outs`` tuples (zero or more per input row).

    A wrapper's stage has ``args`` and ``const_args`` of ``None``: its
    input is the decoded row of whatever columns the call passes (the
    input relation's arity is only known at call time, section 4.2.3)
    and its constants are the call's ``const_args``."""

    udf: UdfDefinition
    args: Optional[Tuple[str, ...]]
    const_args: Optional[Tuple[Any, ...]]
    outs: Tuple[str, ...]


@dataclass(frozen=True)
class AggregateStage:
    """Terminal (or pre-table) aggregation: either an aggregate UDF class
    or a builtin aggregate named in :data:`BUILTIN_AGG_STATES`."""

    args: Tuple[str, ...]
    out: str
    udf: Optional[UdfDefinition] = None
    builtin: Optional[str] = None

    def __post_init__(self):
        if (self.udf is None) == (self.builtin is None):
            raise JitError("AggregateStage needs exactly one of udf/builtin")


@dataclass(frozen=True)
class DistinctStage:
    """An offloaded DISTINCT over the given key variables."""

    args: Tuple[str, ...]


Stage = Union[
    ScalarUdfStage, ExprStage, FilterStage, TableUdfStage,
    AggregateStage, DistinctStage,
]


@dataclass
class PipelineSpec:
    """A fused pipeline: inputs, stages, and outputs.

    ``inputs`` are the fused UDF's parameters (in order); every stage's
    argument names must be inputs or earlier stage outputs.
    """

    name: str
    inputs: Tuple[Tuple[str, SqlType], ...]
    stages: Tuple[Stage, ...]
    outputs: Tuple[str, ...]
    output_types: Tuple[SqlType, ...]
    output_names: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.output_names:
            self.output_names = tuple(f"c{i}" for i in range(len(self.outputs)))
        self._validate()

    def _validate(self) -> None:
        defined = {name for name, _ in self.inputs}
        for stage in self.stages:
            for arg in getattr(stage, "args", None) or ():
                if arg not in defined:
                    raise JitError(
                        f"pipeline {self.name!r}: stage argument {arg!r} "
                        f"is not defined yet"
                    )
            for out in _stage_outs(stage):
                defined.add(out)
        for out in self.outputs:
            if out not in defined:
                raise JitError(
                    f"pipeline {self.name!r}: output {out!r} is not defined"
                )

    @property
    def result_kind(self) -> UdfKind:
        """The fused UDF's type per Table 2."""
        stages = self.stages
        agg_positions = [
            i for i, s in enumerate(stages) if isinstance(s, AggregateStage)
        ]
        table_after_agg = agg_positions and any(
            isinstance(s, TableUdfStage) for s in stages[agg_positions[-1]:]
        )
        if agg_positions and not table_after_agg:
            return UdfKind.AGGREGATE
        if any(
            isinstance(s, (FilterStage, TableUdfStage, DistinctStage))
            for s in stages
        ) or table_after_agg:
            return UdfKind.TABLE
        return UdfKind.SCALAR

    @property
    def signature_key(self) -> Tuple:
        """A structural identity used by the trace cache: two pipelines
        with the same key compile to the same code.

        UDF stages are identified by name *plus* definition-content
        fingerprint (:func:`repro.cache.fingerprint.definition_fingerprint`),
        so re-registering a UDF with a changed body can never hit the
        trace compiled from the old body."""
        from ..cache.fingerprint import definition_fingerprint

        parts: List[Tuple] = [tuple(self.inputs), self.outputs, self.output_types]
        for stage in self.stages:
            if isinstance(stage, ScalarUdfStage):
                parts.append(
                    ("scalar", stage.udf.name,
                     definition_fingerprint(stage.udf),
                     stage.args, stage.out)
                )
            elif isinstance(stage, ExprStage):
                parts.append(("expr", stage.src, stage.args, stage.out, stage.strict))
            elif isinstance(stage, FilterStage):
                parts.append(("filter", stage.src, stage.args))
            elif isinstance(stage, TableUdfStage):
                parts.append(
                    ("table", stage.udf.name,
                     definition_fingerprint(stage.udf),
                     stage.args, stage.const_args, stage.outs)
                )
            elif isinstance(stage, AggregateStage):
                parts.append(
                    ("agg", stage.udf.name if stage.udf else stage.builtin,
                     definition_fingerprint(stage.udf) if stage.udf else "",
                     stage.args, stage.out)
                )
            elif isinstance(stage, DistinctStage):
                parts.append(("distinct", stage.args))
        return tuple(parts)


def _stage_outs(stage: Stage) -> Tuple[str, ...]:
    if isinstance(stage, TableUdfStage):
        return stage.outs
    out = getattr(stage, "out", None)
    return (out,) if out is not None else ()


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


@dataclass
class FusedUdf:
    """A generated fused UDF: its definition, source, and compile time."""

    definition: UdfDefinition
    source: str
    compile_seconds: float
    inlined_stages: int
    called_stages: int

    @property
    def trace_length(self) -> int:
        """Number of fused stages — the paper's "longer traces" metric."""
        return self.inlined_stages + self.called_stages


def generate_fused_udf(spec: PipelineSpec) -> FusedUdf:
    """Generate, compile, and wrap the fused UDF for ``spec``."""
    start = time.perf_counter()
    kind = spec.result_kind
    generator = _Generator(spec)
    if kind is UdfKind.SCALAR:
        source, entry_name = generator.scalar_source()
    elif kind is UdfKind.AGGREGATE:
        source, entry_name = generator.aggregate_source()
    else:
        source, entry_name = generator.table_source()

    namespace = _exec(source, f"<fused:{spec.name}>", generator.namespace)
    arg_names = tuple(name for name, _ in spec.inputs)
    arg_types = tuple(sql_type for _, sql_type in spec.inputs)
    signature = UdfSignature(arg_names, arg_types, tuple(spec.output_types))
    definition = UdfDefinition(
        name=spec.name,
        kind=kind,
        func=namespace[entry_name],
        signature=signature,
        out_columns=tuple(spec.output_names),
        # Fused bodies implement exact per-stage NULL semantics, so the
        # wrapper must not short-circuit NULL inputs (e.g. a fused CASE
        # may map NULL to its ELSE value).
        strict=False,
        fused_from=tuple(_fused_from(spec)),
        entries={
            call: namespace[name] for call, name in generator.entries.items()
        },
    )
    elapsed = time.perf_counter() - start
    return FusedUdf(
        definition, source, elapsed, generator.inlined, generator.called
    )


def generate_wrapper(udf: UdfDefinition,
                     expand: bool = False) -> Tuple[str, Callable]:
    """Generate and compile one entry of ``udf``'s wrapper, ``(source,
    entry)``: the one-stage pipeline whose stage calls the UDF (never
    inlined), with the UDF's own NULL rule and fault context.  A table
    UDF's entry is its relation mode, or with ``expand`` its expand
    mode; the other modes have one entry."""
    name = f"wrapper_{udf.name}"
    args = tuple(f"v{i}" for i in range(udf.arity))
    inputs = tuple(zip(args, udf.signature.arg_types))
    outs: Tuple[str, ...] = ("r",)
    if udf.kind is UdfKind.SCALAR:
        stage: Stage = ScalarUdfStage(udf, args, "r", strict=False)
    elif udf.kind is UdfKind.AGGREGATE:
        stage = AggregateStage(args, "r", udf=udf)
    else:
        inputs = ()
        outs = tuple(f"r{i}" for i in range(len(udf.signature.return_types)))
        stage = TableUdfStage(udf, None, None, outs)
    generator = _Generator(
        PipelineSpec(udf.name, inputs, (stage,), outs,
                     tuple(udf.signature.return_types)),
        wraps=udf,
    )
    builder = SourceBuilder()
    entry = name
    if udf.kind is UdfKind.SCALAR:
        generator.emit_scalar_batch(builder, name, name)
    elif udf.kind is UdfKind.AGGREGATE:
        generator.emit_aggregate_batch(builder, name)
    elif expand:
        entry = f"{name}_expand"
        generator.emit_expand_batch(builder, entry, name)
    else:
        generator.emit_relation(builder, name)
    source = builder.source()
    namespace = _exec(source, f"<wrapper:{entry}>", generator.namespace)
    return source, namespace[entry]


def _tuple(items: Sequence[str]) -> str:
    """Python source of a tuple display of ``items``."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _exec(source: str, filename: str, bindings: Dict[str, Any]) -> Dict[str, Any]:
    namespace = dict(bindings)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _fused_from(spec: PipelineSpec) -> List[str]:
    names: List[str] = []
    for stage in spec.stages:
        if isinstance(stage, (ScalarUdfStage, TableUdfStage)):
            names.append(stage.udf.name)
        elif isinstance(stage, AggregateStage):
            names.append(stage.udf.name if stage.udf else stage.builtin)
        elif isinstance(stage, FilterStage):
            names.append("filter")
        elif isinstance(stage, DistinctStage):
            names.append("distinct")
        elif isinstance(stage, ExprStage):
            names.append("expr")
    return names


#: The cooperative cancellation checkpoint, every 256 rows.
_CHECKPOINT = "if not (_idx & 255): _gov_check()"

#: One input row of a wrapper's table stage, decoded from whatever
#: columns the call passes.
_ROW = (
    "tuple(c_to_python(c_inputs[_j][_idx], in_types[_j]) for _j in range(_n))"
)


class _Generator:
    """Emits the source of one pipeline: a fused trace, or the one-stage
    wrapper of the registered UDF ``wraps``."""

    def __init__(self, spec: PipelineSpec,
                 wraps: Optional[UdfDefinition] = None):
        from ..obs import OBS as _obs_state
        from ..resilience import governor as _governor
        from ..resilience import runtime as _resilience

        self.spec = spec
        self.wraps = wraps
        #: The fault context rows fire in: only a user UDF's own wrapper
        #: runs interpreted.
        self.ctx = (
            "interp" if wraps is not None and not wraps.is_fused else "fused"
        )
        #: A wrapped table UDF takes rows of any arity and the call's
        #: constants (see :class:`TableUdfStage`).
        self.variadic = any(
            isinstance(s, TableUdfStage) and s.args is None
            for s in spec.stages
        )
        #: Call kind -> name of a batch entry compiled with a fused trace.
        self.entries: Dict[str, str] = {}
        self.inlined = 0
        self.called = 0
        names = [spec.name]
        for stage in spec.stages:
            udf = getattr(stage, "udf", None)
            if udf is not None:
                names += [udf.name, *udf.fused_from]
        self.namespace: Dict[str, Any] = dict(
            c_to_python=boundary.c_to_python,
            python_to_c=boundary.python_to_c,
            UdfExecutionError=UdfExecutionError,
            _IN_TYPES=tuple(t for _, t in spec.inputs),
            _OUT_TYPE=spec.output_types[0],
            _OUT_TYPES=tuple(spec.output_types),
            # Resilience runtime: row-level exception policies and the
            # fault-injection hook checked inside generated batch loops.
            _FAULTS=_resilience.FAULTS,
            _rt_policy=_resilience.policy,
            _rt_row_error=_resilience.handle_scalar_row_error,
            _rt_expand_row_error=_resilience.handle_expand_row_error,
            # Governance: cooperative cancellation checkpoint (near-free
            # when no governed context is active on this thread).
            _gov_check=_governor.checkpoint,
            _NAME=spec.name,
            _NAMES=tuple(dict.fromkeys(names)),
            # Observability: one branch + at most one call per *batch*
            # (never per row) keeps the disabled path a single branch.
            _obs=_obs_state,
            _obs_batch=_record_fused_batch,
        )
        self._bind_builtin_aggregates()

    def _bind_builtin_aggregates(self) -> None:
        from ..engine import functions as engine_functions

        for stage in self.spec.stages:
            if isinstance(stage, AggregateStage) and stage.builtin:
                builtin = engine_functions.BUILTIN_AGGREGATES.get(stage.builtin)
                if builtin is None:
                    raise JitError(f"unknown builtin aggregate {stage.builtin!r}")
                self.namespace[f"_aggstate_{stage.builtin}"] = builtin.make_state

    # ------------------------------------------------------------------
    # Shared stage emission
    # ------------------------------------------------------------------

    def _null_guard(self, args: Sequence[str]) -> str:
        return " or ".join(f"{a} is None" for a in args)

    def _emit_scalar(
        self,
        builder: SourceBuilder,
        stage: ScalarUdfStage,
        force_call: bool = False,
    ) -> None:
        called = force_call or self.wraps is not None
        inline = None if called else try_inline(stage.udf.func)
        if inline is not None:
            expression = inline.substitute(stage.args)
            self.inlined += 1
        else:
            bound = f"_f_{stage.udf.name}"
            self.namespace[bound] = stage.udf.func
            expression = f"{bound}({', '.join(stage.args)})"
            self.called += 1
        self._emit_assign(builder, stage, expression)

    def _emit_expr(self, builder: SourceBuilder, stage: ExprStage) -> None:
        self.inlined += 1
        for bound_name, value in stage.bindings:
            self.namespace[bound_name] = value
        self._emit_assign(builder, stage, stage.src)

    def _emit_assign(self, builder: SourceBuilder,
                     stage: Union[ScalarUdfStage, ExprStage],
                     expression: str) -> None:
        """``out = expression``, NULL without evaluation on a NULL
        argument when the stage is strict."""
        guard = self._null_guard(stage.args) if stage.strict else ""
        if guard:
            expression = f"None if ({guard}) else ({expression})"
        builder.line(f"{stage.out} = {expression}")

    def _emit_chain(self, builder: SourceBuilder, stages: Sequence[Stage],
                    force_call: bool = False) -> None:
        """Scalar stages, in order: a scalar pipeline, or what follows an
        aggregate in an aggregate-kind pipeline (TF7)."""
        for stage in stages:
            if isinstance(stage, ScalarUdfStage):
                self._emit_scalar(builder, stage, force_call=force_call)
            elif isinstance(stage, ExprStage):
                self._emit_expr(builder, stage)
            else:
                raise JitError(
                    f"stage {type(stage).__name__} in a scalar chain"
                )

    def _emit_filter_condition(self, stage: FilterStage) -> str:
        self.inlined += 1
        for bound_name, value in stage.bindings:
            self.namespace[bound_name] = value
        guard = self._null_guard(stage.args)
        if guard:
            return f"(False if ({guard}) else bool({stage.src}))"
        return f"bool({stage.src})"

    # ------------------------------------------------------------------
    # The batch-loop skeleton, shared by every entry kind
    # ------------------------------------------------------------------

    def _emit_metrics(self, builder: SourceBuilder) -> None:
        """The fused-batch size histogram (fused traces only)."""
        if self.wraps is None:
            builder.line("if _obs.metrics: _obs_batch(_NAME, size)")

    def _emit_fire_row(self, builder: SourceBuilder) -> None:
        with builder.block("if _FAULTS.armed:"):
            builder.line(
                f"_FAULTS.injector.fire_row(_NAMES, _idx, {self.ctx!r})"
            )

    def _emit_null_skip(self, builder: SourceBuilder, joiner: str) -> None:
        """A wrapped strict UDF skips NULL rows before its fault hook and
        before any conversion: any NULL argument for a scalar (``or``),
        all-NULL arguments for an aggregate (``and``)."""
        if self.wraps is None or not self.wraps.skips_null_rows():
            return
        test = f" {joiner} ".join(
            f"_c{i}[_idx] is None" for i in range(len(self.spec.inputs))
        )
        with builder.block(f"if {test}:"):
            builder.line("continue")

    def _emit_columns(self, builder: SourceBuilder) -> None:
        for i in range(len(self.spec.inputs)):
            builder.line(f"_c{i} = c_inputs[{i}]")

    def _emit_decode(self, builder: SourceBuilder, column: str,
                     sql_type: str) -> None:
        """Convert the current row's inputs; ``column`` and ``sql_type``
        are templates over the input position ``{i}``."""
        if self.variadic:
            builder.line(f"_row = {_ROW}")
            return
        for i, (name, _) in enumerate(self.spec.inputs):
            builder.line(
                f"{name} = c_to_python({column.format(i=i)}, "
                f"{sql_type.format(i=i)})"
            )

    def _emit_raise_wrapped(self, builder: SourceBuilder, detail: str = "") -> None:
        """Re-raise a failure as :class:`UdfExecutionError` (once)."""
        with builder.block("except UdfExecutionError:"):
            builder.line("raise")
        with builder.block("except Exception as _exc:"):
            builder.line(
                f"raise UdfExecutionError(_NAME, _exc{detail}) from _exc"
            )

    # ------------------------------------------------------------------
    # Entry kinds
    # ------------------------------------------------------------------

    def emit_scalar_batch(self, builder: SourceBuilder, entry: str,
                          base: str) -> None:
        """``entry(c_inputs, size) -> values`` and its replay
        ``{base}__reinterp``.  Re-emitting a trace's stages for its batch
        entries is not an extra trace, so the stage counters are kept."""
        spec = self.spec
        out = spec.outputs[0]
        replay = f"{base}__reinterp"
        counters = (self.inlined, self.called)
        with builder.block(f"def {entry}(c_inputs, size):"):
            builder.line(f'"""Scalar batch loop of {spec.name!r}."""')
            self._emit_metrics(builder)
            builder.line("result = [None] * size")
            self._emit_columns(builder)
            builder.line("_policy = _rt_policy()")
            with builder.block("for _idx in range(size):"):
                builder.line(_CHECKPOINT)
                self._emit_null_skip(builder, "or")
                with builder.block("try:"):
                    self._emit_fire_row(builder)
                    self._emit_decode(builder, "_c{i}[_idx]", "_IN_TYPES[{i}]")
                    self._emit_chain(builder, spec.stages)
                    builder.line(
                        f"result[_idx] = python_to_c({out}, _OUT_TYPE)"
                    )
                with builder.block("except Exception as _exc:"):
                    builder.line(
                        f"result[_idx] = _rt_row_error(_NAME, _policy, _exc, "
                        f"_idx, (lambda _i=_idx: {replay}(c_inputs, _i)))"
                    )
            builder.line("return result")
        builder.line()
        # Per-row replay through the *called* (not inlined) UDF chain —
        # the interpreted fallback the reinterpret policy executes when
        # one row raises.
        with builder.block(f"def {replay}(c_inputs, _idx):"):
            builder.line('"""Interpreted single-row replay (deopt path)."""')
            self._emit_decode(builder, "c_inputs[{i}][_idx]", "_IN_TYPES[{i}]")
            self._emit_chain(builder, spec.stages, force_call=True)
            builder.line(f"return python_to_c({out}, _OUT_TYPE)")
        self.inlined, self.called = counters

    def emit_aggregate_batch(self, builder: SourceBuilder, entry: str) -> None:
        """``entry(c_inputs, size, group_ids, num_groups) -> values``:
        init-step-final over ``aggr_group_data`` for the wrapped class.

        A failed ``step()`` leaves partial aggregate state that cannot be
        reconciled, so row-level policies never apply and there is no
        replay: the failure raises with its row, and recovery happens at
        the query level through de-optimization."""
        stage = self.spec.stages[0]
        self.namespace["_agg"] = stage.udf.func
        args = ", ".join(name for name, _ in self.spec.inputs)
        with builder.block(
            f"def {entry}(c_inputs, size, group_ids, num_groups):"
        ):
            builder.line(f'"""Aggregate batch loop of {self.spec.name!r}."""')
            self._emit_columns(builder)
            with builder.block("try:"):
                builder.line("aggrs = [_agg() for _ in range(num_groups)]")
            with builder.block("except Exception as _exc:"):
                builder.line("raise UdfExecutionError(_NAME, _exc) from _exc")
            with builder.block("for _idx in range(size):"):
                builder.line(_CHECKPOINT)
                self._emit_null_skip(builder, "and")
                with builder.block("try:"):
                    self._emit_fire_row(builder)
                    self._emit_decode(builder, "_c{i}[_idx]", "_IN_TYPES[{i}]")
                    builder.line(f"aggrs[group_ids[_idx]].step({args})")
                self._emit_raise_wrapped(builder, ", row=_idx")
            with builder.block("try:"):
                builder.line(
                    "return [python_to_c(a.final(), _OUT_TYPE) for a in aggrs]"
                )
            with builder.block("except Exception as _exc:"):
                builder.line(
                    "raise UdfExecutionError(_NAME, _exc, phase='final') "
                    "from _exc"
                )

    def emit_relation(self, builder: SourceBuilder, entry: str) -> None:
        """``entry(c_inputs, size, in_types, const_args) -> columns``: the
        wrapped table UDF consumes the whole input relation through a
        generator (FROM-clause usage).  A failure raises without a row:
        the UDF owns the iteration, so no row can be replayed alone."""
        stage = self.spec.stages[0]
        bound = f"_t_{stage.udf.name}"
        self.namespace[bound] = stage.udf.func
        outs = [f"_o{i}" for i in range(len(self.spec.outputs))]
        with builder.block("def _inp_datagen(c_inputs, size, in_types):"):
            builder.line(
                '"""Input generator: decodes one input row per iteration '
                'without materializing the input (section 4.2.3)."""'
            )
            builder.line("_n = len(c_inputs)")
            with builder.block("for _idx in range(size):"):
                builder.line(_CHECKPOINT)
                self._emit_fire_row(builder)
                builder.line(f"yield {_ROW}")
        builder.line()
        with builder.block(
            f"def {entry}(c_inputs, size, in_types, const_args):"
        ):
            builder.line(f'"""Relation-mode loop of {self.spec.name!r}."""')
            for out in outs:
                builder.line(f"{out} = []")
            with builder.block("try:"):
                with builder.block(
                    f"for _r in {bound}(_inp_datagen(c_inputs, size, "
                    f"in_types), *const_args):"
                ):
                    for i, out in enumerate(outs):
                        builder.line(
                            f"{out}.append(python_to_c(_r[{i}], "
                            f"_OUT_TYPES[{i}]))"
                        )
            self._emit_raise_wrapped(builder)
            builder.line(f"return [{', '.join(outs)}]")

    def emit_expand_batch(self, builder: SourceBuilder, entry: str,
                          base: str) -> None:
        """``entry(c_inputs, size, in_types, const_args=()) -> (lineage,
        columns)``, one input row at a time with several output rows per
        row, and its replay ``{base}__reinterp_expand``.  A fused trace's
        stages run with boundary conversions inlined and no per-row
        generators (section 4.1's loop-fused wrapper)."""
        spec = self.spec
        replay = f"{base}__reinterp_expand"
        consts = ", const_args" if self.variadic else ""
        n_out = len(spec.outputs)
        counters = (self.inlined, self.called)
        # Row-level exception capture is unsound across a DistinctStage:
        # its _seen set may already contain the failed row's key, so a
        # replay could wrongly drop later rows.  Distinct pipelines keep
        # batch-level semantics (a failure de-optimizes the whole query).
        capture = not any(isinstance(s, DistinctStage) for s in spec.stages)
        with builder.block(
            f"def {entry}(c_inputs, size, in_types, const_args=()):"
        ):
            builder.line(f'"""Expand-mode batch loop of {spec.name!r}."""')
            self._emit_metrics(builder)
            builder.line("lineage = []")
            for i in range(n_out):
                builder.line(f"_o{i} = []")
            if not capture:
                builder.line("_seen = set()")
            if self.variadic:
                builder.line("_n = len(c_inputs)")
            for i in range(len(spec.inputs)):
                builder.line(f"_c{i} = c_inputs[{i}]")
                builder.line(f"_t{i} = in_types[{i}]")

            def _batch_tail(b: SourceBuilder) -> None:
                b.line("lineage.append(_idx)")
                for i, out in enumerate(spec.outputs):
                    b.line(f"_o{i}.append(python_to_c({out}, _OUT_TYPES[{i}]))")

            if capture:
                builder.line("_policy = _rt_policy()")
            else:
                # Without row capture any failure fails the whole batch.
                builder.line("try:")
                builder.indent()
            with builder.block("for _idx in range(size):"):
                builder.line(_CHECKPOINT)
                if capture:
                    builder.line("try:")
                    builder.indent()
                    self._emit_fire_row(builder)
                self._emit_decode(builder, "_c{i}[_idx]", "_t{i}")
                self._emit_stream_stages(
                    builder, list(spec.stages), early_exit="continue",
                    seen="_seen", tail=_batch_tail,
                )
                if capture:
                    builder.dedent()
                    with builder.block("except Exception as _exc:"):
                        # Roll back partial outputs of the failed row
                        # (lineage is non-decreasing, so its tail holds
                        # exactly this row's entries; a conversion that
                        # raised left its outputs shorter than lineage).
                        with builder.block(
                            "while lineage and lineage[-1] == _idx:"
                        ):
                            builder.line("lineage.pop()")
                        for i in range(n_out):
                            builder.line(f"del _o{i}[len(lineage):]")
                        builder.line(
                            f"_rres = _rt_expand_row_error(_NAME, _policy, "
                            f"_exc, _idx, (lambda _i=_idx: "
                            f"{replay}(c_inputs, in_types, _i{consts})))"
                        )
                        with builder.block("if _rres is None:"):
                            builder.line("lineage.append(_idx)")
                            for i in range(n_out):
                                builder.line(f"_o{i}.append(None)")
                        with builder.block("else:"):
                            with builder.block("for _row in _rres:"):
                                builder.line("lineage.append(_idx)")
                                for i in range(n_out):
                                    builder.line(f"_o{i}.append(_row[{i}])")
            if not capture:
                builder.dedent()
                self._emit_raise_wrapped(builder)
            outs = ", ".join(f"_o{i}" for i in range(n_out))
            builder.line(f"return lineage, [{outs}]")
        if capture:
            builder.line()
            with builder.block(
                f"def {replay}(c_inputs, in_types, _idx, const_args=()):"
            ):
                builder.line(
                    '"""Interpreted single-row replay (deopt path): '
                    'returns converted out-row tuples."""'
                )
                builder.line("_rows = []")
                if self.variadic:
                    builder.line("_n = len(c_inputs)")
                self._emit_decode(
                    builder, "c_inputs[{i}][_idx]", "in_types[{i}]"
                )

                def _reinterp_tail(b: SourceBuilder) -> None:
                    row = _tuple([
                        f"python_to_c({out}, _OUT_TYPES[{i}])"
                        for i, out in enumerate(spec.outputs)
                    ])
                    b.line(f"_rows.append({row})")

                self._emit_stream_stages(
                    builder, list(spec.stages), early_exit="return _rows",
                    seen="_seen", tail=_reinterp_tail, force_call=True,
                )
                builder.line("return _rows")
        self.inlined, self.called = counters

    # ------------------------------------------------------------------
    # Scalar result (TF1)
    # ------------------------------------------------------------------

    def scalar_source(self) -> Tuple[str, str]:
        spec = self.spec
        builder = SourceBuilder()
        params = ", ".join(name for name, _ in spec.inputs)
        entry = f"{spec.name}"
        with builder.block(f"def {entry}({params}):"):
            builder.line(
                f'"""JIT-fused scalar UDF '
                f'({" -> ".join(_fused_from(spec)) or "identity"})."""'
            )
            self._emit_chain(builder, spec.stages)
            builder.line(f"return {spec.outputs[0]}")
        builder.line()
        # The trace's own batch entry: one loop with inline boundary
        # conversions, no per-row Python call into the fused function
        # (section 4.1's loop-fused wrapper).
        self.emit_scalar_batch(builder, f"{entry}__scalar_batch", entry)
        self.entries["scalar"] = f"{entry}__scalar_batch"
        return builder.source(), entry

    # ------------------------------------------------------------------
    # Aggregate result (TF2, TF6, TF7)
    # ------------------------------------------------------------------

    def _state_expr(self, stage: AggregateStage) -> str:
        """Source that creates one aggregate state of ``stage``."""
        if stage.udf is None:
            return f"_aggstate_{stage.builtin}()"
        self.namespace[f"_agg_{stage.udf.name}"] = stage.udf.func
        return f"_agg_{stage.udf.name}()"

    def _inputs(self) -> str:
        return _tuple([name for name, _ in self.spec.inputs])

    def aggregate_source(self) -> Tuple[str, str]:
        spec = self.spec
        agg_index = max(
            i for i, s in enumerate(spec.stages) if isinstance(s, AggregateStage)
        )
        # Multiple aggregate stages in one pipeline are not fusible.
        if sum(isinstance(s, AggregateStage) for s in spec.stages) > 1:
            raise JitError("a fused pipeline may contain one aggregate stage")
        agg_stage = spec.stages[agg_index]
        assert isinstance(agg_stage, AggregateStage)
        pre = spec.stages[:agg_index]
        post = spec.stages[agg_index + 1:]

        state_expr = self._state_expr(agg_stage)
        builder = SourceBuilder()
        entry = spec.name
        with builder.block(f"class {entry}:"):
            builder.line(
                f'"""JIT-fused aggregate UDF '
                f'({" -> ".join(_fused_from(spec))})."""'
            )
            with builder.block("def __init__(self):"):
                builder.line(f"self._state = {state_expr}")
                if any(isinstance(s, DistinctStage) for s in pre):
                    builder.line("self._seen = set()")
            params = ", ".join(name for name, _ in spec.inputs)
            has_table_pre = any(isinstance(s, TableUdfStage) for s in pre)

            def _step_tail(b: SourceBuilder) -> None:
                guard = self._null_guard(agg_stage.args)
                skip = "continue" if has_table_pre else "return"
                if guard:
                    with b.block(f"if {guard}:"):
                        b.line(skip)
                b.line(f"self._state.step({', '.join(agg_stage.args)})")

            with builder.block(f"def step(self, {params}):"):
                self._emit_stream_stages(
                    builder, pre, early_exit="return", seen="self._seen",
                    tail=_step_tail,
                )
            with builder.block("def final(self):"):
                builder.line(f"{agg_stage.out} = self._state.final()")
                self._emit_chain(builder, post)
                builder.line(f"return {spec.outputs[0]}")
        return builder.source(), entry

    # ------------------------------------------------------------------
    # Table result (TF3, TF4, TF5, TF8)
    # ------------------------------------------------------------------

    def table_source(self) -> Tuple[str, str]:
        spec = self.spec
        builder = SourceBuilder()
        entry = spec.name
        agg_stages = [s for s in spec.stages if isinstance(s, AggregateStage)]
        if agg_stages:
            return self._table_after_aggregate_source()

        with builder.block(f"def {entry}(inp_datagen):"):
            builder.line(
                f'"""JIT-fused table UDF '
                f'({" -> ".join(_fused_from(spec))})."""'
            )
            if any(isinstance(s, DistinctStage) for s in spec.stages):
                builder.line("_seen = set()")
            with builder.block(f"for {self._inputs()} in inp_datagen:"):
                self._emit_stream_stages(
                    builder, list(spec.stages), early_exit="continue",
                    seen="_seen", yield_outputs=True,
                )
        builder.line()
        self.emit_expand_batch(builder, f"{entry}__expand_batch", entry)
        self.entries["table_expand"] = f"{entry}__expand_batch"
        return builder.source(), entry

    def _emit_stream_stages(
        self,
        builder: SourceBuilder,
        stages: Sequence[Stage],
        *,
        early_exit: str,
        seen: str,
        yield_outputs: bool = False,
        tail=None,
        force_call: bool = False,
    ) -> None:
        """Emit a run of stream stages inside a per-row context.

        Table UDF stages open nested ``for`` loops (generator composition
        driven per input row — the expand-style pipelining of section
        4.2.3), so everything downstream of a table stage nests inside
        its loop.  ``tail`` (a callback receiving the builder) is emitted
        inside the deepest loop, after all stages.
        """
        spec = self.spec
        depth_opened = 0
        for stage in stages:
            if isinstance(stage, ScalarUdfStage):
                self._emit_scalar(builder, stage, force_call=force_call)
            elif isinstance(stage, ExprStage):
                self._emit_expr(builder, stage)
            elif isinstance(stage, FilterStage):
                condition = self._emit_filter_condition(stage)
                with builder.block(f"if not {condition}:"):
                    builder.line(early_exit)
            elif isinstance(stage, DistinctStage):
                builder.line(f"_key = {_tuple(stage.args)}")
                with builder.block(f"if _key in {seen}:"):
                    builder.line(early_exit)
                builder.line(f"{seen}.add(_key)")
            elif isinstance(stage, TableUdfStage):
                bound = f"_t_{stage.udf.name}"
                self.namespace[bound] = stage.udf.func
                self.called += 1
                if stage.args is None:
                    # A wrapper's stage: the decoded row, the call's
                    # constants, output columns by position.
                    builder.line(
                        f"for _r in {bound}(iter([_row]), *const_args):"
                    )
                    builder.indent()
                    for i, out in enumerate(stage.outs):
                        builder.line(f"{out} = _r[{i}]")
                else:
                    consts = "".join(f", {c!r}" for c in stage.const_args)
                    builder.line(
                        f"_gen = {bound}(iter([{_tuple(stage.args)}]){consts})"
                    )
                    builder.line(f"for {_tuple(stage.outs)} in _gen:")
                    builder.indent()
                depth_opened += 1
                # early exits inside a table loop skip that row only
                early_exit = "continue"
            elif isinstance(stage, AggregateStage):
                raise JitError("aggregate stage in stream context")
        if yield_outputs:
            builder.line(f"yield {_tuple(spec.outputs)}")
        if tail is not None:
            tail(builder)
        for _ in range(depth_opened):
            builder.dedent()

    def _table_after_aggregate_source(self) -> Tuple[str, str]:
        """TF8: aggregate followed by a table UDF -> table-kind pipeline
        that aggregates the whole input, then expands the final value."""
        spec = self.spec
        agg_index = next(
            i for i, s in enumerate(spec.stages) if isinstance(s, AggregateStage)
        )
        agg_stage = spec.stages[agg_index]
        assert isinstance(agg_stage, AggregateStage)
        pre = list(spec.stages[:agg_index])
        post = list(spec.stages[agg_index + 1:])
        if not any(isinstance(s, TableUdfStage) for s in post):
            raise JitError("TF8 pipelines need a table stage after the aggregate")

        state_expr = self._state_expr(agg_stage)
        builder = SourceBuilder()
        entry = spec.name
        with builder.block(f"def {entry}(inp_datagen):"):
            builder.line(
                f'"""JIT-fused table UDF with inner aggregation (TF8: '
                f'{" -> ".join(_fused_from(spec))})."""'
            )
            builder.line(f"_state = {state_expr}")
            if any(isinstance(s, DistinctStage) for s in pre):
                builder.line("_seen = set()")
            def _agg_tail(b: SourceBuilder) -> None:
                guard = self._null_guard(agg_stage.args)
                if guard:
                    with b.block(f"if {guard}:"):
                        b.line("continue")
                b.line(f"_state.step({', '.join(agg_stage.args)})")

            with builder.block(f"for {self._inputs()} in inp_datagen:"):
                self._emit_stream_stages(
                    builder, pre, early_exit="continue", seen="_seen",
                    tail=_agg_tail,
                )
            builder.line(f"{agg_stage.out} = _state.final()")
            self._emit_stream_stages(
                builder, post, early_exit="continue", seen="_seen",
                yield_outputs=True,
            )
        return builder.source(), entry
