"""Fused-UDF code generation — the paper's loop-fusion templates TF1-TF8.

A fused pipeline is described by a :class:`PipelineSpec`: named inputs,
a sequence of stages wired through variable names, and the output
variables.  :func:`generate_fused_udf` compiles the spec into a *new UDF
that itself follows the design specifications of section 4.2*, so the
ordinary registration mechanism (wrapper generation, CREATE FUNCTION)
applies to fused UDFs unchanged — exactly the paper's architecture.

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

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import JitError
from ..types import SqlType
from ..udf.definition import UdfDefinition, UdfKind
from ..udf.signature import UdfSignature
from ..udf.wrappers import SourceBuilder
from .inliner import try_inline

__all__ = [
    "ScalarUdfStage", "ExprStage", "FilterStage", "TableUdfStage",
    "AggregateStage", "DistinctStage", "PipelineSpec", "FusedUdf",
    "generate_fused_udf",
]


def _record_fused_batch(name: str, size: int) -> None:
    """Once-per-batch metrics hook bound into generated wrappers."""
    from ..obs import DEFAULT_SIZE_BUCKETS, METRICS

    METRICS.histogram(
        "repro_fused_batch_rows", DEFAULT_SIZE_BUCKETS, udf=name
    ).observe(size)


# ----------------------------------------------------------------------
# Stage model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarUdfStage:
    """Apply a scalar UDF: ``out = udf(*args)`` (strict in NULLs)."""

    udf: UdfDefinition
    args: Tuple[str, ...]
    out: str


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
    ``outs`` tuples (zero or more per input row)."""

    udf: UdfDefinition
    args: Tuple[str, ...]
    const_args: Tuple[Any, ...]
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
            for arg in getattr(stage, "args", ()):
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

    namespace = dict(generator.namespace)
    code = compile(source, f"<fused:{spec.name}>", "exec")
    exec(code, namespace)
    func = namespace[entry_name]
    expand_batch_func = namespace.get(f"{entry_name}__expand_batch")
    scalar_batch_func = namespace.get(f"{entry_name}__scalar_batch")
    if scalar_batch_func is not None:
        # Fused scalar traces are row-wise pure (each output row depends
        # only on its input row), so the morsel executor may shard their
        # batches freely.
        scalar_batch_func.morsel_safe = True

    arg_names = tuple(name for name, _ in spec.inputs)
    arg_types = tuple(sql_type for _, sql_type in spec.inputs)
    signature = UdfSignature(arg_names, arg_types, tuple(spec.output_types))
    definition = UdfDefinition(
        name=spec.name,
        kind=kind,
        func=func,
        signature=signature,
        out_columns=tuple(spec.output_names),
        # Fused bodies implement exact per-stage NULL semantics, so the
        # wrapper must not short-circuit NULL inputs (e.g. a fused CASE
        # may map NULL to its ELSE value).
        strict=False,
        fused_from=tuple(_fused_from(spec)),
        expand_batch_func=expand_batch_func,
        scalar_batch_func=scalar_batch_func,
    )
    elapsed = time.perf_counter() - start
    return FusedUdf(
        definition, source, elapsed, generator.inlined, generator.called
    )


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


class _Generator:
    """Emits the fused source for one pipeline."""

    def __init__(self, spec: PipelineSpec):
        from ..obs import OBS as _obs_state
        from ..resilience import governor as _governor
        from ..resilience import runtime as _resilience

        self.spec = spec
        self.namespace: Dict[str, Any] = {"BUILTIN_AGG_STATES": None}
        self.inlined = 0
        self.called = 0
        self._bind_builtin_aggregates()
        # Resilience runtime: row-level exception policies and the
        # fault-injection hook checked inside generated batch loops.
        udf_names = tuple(
            s.udf.name
            for s in spec.stages
            if isinstance(s, (ScalarUdfStage, TableUdfStage, AggregateStage))
            and getattr(s, "udf", None) is not None
        )
        self.namespace.update(
            _FAULTS=_resilience.FAULTS,
            _rt_policy=_resilience.policy,
            _rt_row_error=_resilience.handle_scalar_row_error,
            _rt_expand_row_error=_resilience.handle_expand_row_error,
            _gov_check=_governor.checkpoint,
            _NAME=spec.name,
            _NAMES=(spec.name,) + udf_names,
            # Observability: one branch + at most one call per *batch*
            # (never per row) keeps the disabled path a single branch.
            _obs=_obs_state,
            _obs_batch=_record_fused_batch,
        )

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
        inline = None if force_call else try_inline(stage.udf.func)
        if inline is not None:
            expression = inline.substitute(stage.args)
            self.inlined += 1
        else:
            bound = f"_f_{stage.udf.name}"
            self.namespace[bound] = stage.udf.func
            expression = f"{bound}({', '.join(stage.args)})"
            self.called += 1
        guard = self._null_guard(stage.args)
        if guard:
            builder.line(f"{stage.out} = None if ({guard}) else ({expression})")
        else:
            builder.line(f"{stage.out} = {expression}")

    def _emit_expr(self, builder: SourceBuilder, stage: ExprStage) -> None:
        self.inlined += 1
        for bound_name, value in stage.bindings:
            self.namespace[bound_name] = value
        guard = self._null_guard(stage.args) if stage.strict else ""
        if guard:
            builder.line(f"{stage.out} = None if ({guard}) else ({stage.src})")
        else:
            builder.line(f"{stage.out} = {stage.src}")

    def _emit_filter_condition(self, stage: FilterStage) -> str:
        self.inlined += 1
        for bound_name, value in stage.bindings:
            self.namespace[bound_name] = value
        guard = self._null_guard(stage.args)
        if guard:
            return f"(False if ({guard}) else bool({stage.src}))"
        return f"bool({stage.src})"

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
            for stage in spec.stages:
                if isinstance(stage, ScalarUdfStage):
                    self._emit_scalar(builder, stage)
                elif isinstance(stage, ExprStage):
                    self._emit_expr(builder, stage)
                else:
                    raise JitError(
                        f"stage {type(stage).__name__} in scalar pipeline"
                    )
            builder.line(f"return {spec.outputs[0]}")
        builder.line()
        # The JIT-generated scalar wrapper: one batch loop with inline
        # boundary conversions — no per-row Python call into the fused
        # function (section 4.1's loop-fused wrapper generation).
        from ..udf import boundary as _boundary

        self.namespace["c_to_python"] = _boundary.c_to_python
        self.namespace["python_to_c"] = _boundary.python_to_c
        self.namespace["_IN_TYPES"] = tuple(t for _, t in spec.inputs)
        self.namespace["_OUT_TYPE"] = spec.output_types[0]
        counters = (self.inlined, self.called)  # batch re-emission is not
        # an extra trace: restore counters afterwards.
        with builder.block(f"def {entry}__scalar_batch(c_inputs, size):"):
            builder.line('"""Fused scalar wrapper: inline conversions."""')
            builder.line("if _obs.metrics: _obs_batch(_NAME, size)")
            builder.line("result = [None] * size")
            for i in range(len(spec.inputs)):
                builder.line(f"_c{i} = c_inputs[{i}]")
            builder.line("_policy = _rt_policy()")
            with builder.block("for _idx in range(size):"):
                builder.line("if not (_idx & 255): _gov_check()")
                with builder.block("try:"):
                    with builder.block("if _FAULTS.armed:"):
                        builder.line(
                            "_FAULTS.injector.fire_row(_NAMES, _idx, 'fused')"
                        )
                    for i, (name, _) in enumerate(spec.inputs):
                        builder.line(
                            f"{name} = c_to_python(_c{i}[_idx], _IN_TYPES[{i}])"
                        )
                    for stage in spec.stages:
                        if isinstance(stage, ScalarUdfStage):
                            self._emit_scalar(builder, stage)
                        else:
                            self._emit_expr(builder, stage)
                    builder.line(
                        f"result[_idx] = python_to_c({spec.outputs[0]}, _OUT_TYPE)"
                    )
                with builder.block("except Exception as _exc:"):
                    builder.line(
                        f"result[_idx] = _rt_row_error(_NAME, _policy, _exc, "
                        f"_idx, (lambda _i=_idx: "
                        f"{entry}__reinterp(c_inputs, _i)))"
                    )
            builder.line("return result")
        builder.line()
        # Per-row replay through the *called* (not inlined) UDF chain —
        # the interpreted fallback the reinterpret policy executes when
        # one fused row raises.
        with builder.block(f"def {entry}__reinterp(c_inputs, _idx):"):
            builder.line('"""Interpreted single-row replay (deopt path)."""')
            for i, (name, _) in enumerate(spec.inputs):
                builder.line(
                    f"{name} = c_to_python(c_inputs[{i}][_idx], _IN_TYPES[{i}])"
                )
            for stage in spec.stages:
                if isinstance(stage, ScalarUdfStage):
                    self._emit_scalar(builder, stage, force_call=True)
                else:
                    self._emit_expr(builder, stage)
            builder.line(f"return python_to_c({spec.outputs[0]}, _OUT_TYPE)")
        self.inlined, self.called = counters
        return builder.source(), entry

    # ------------------------------------------------------------------
    # Aggregate result (TF2, TF6, TF7)
    # ------------------------------------------------------------------

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

        if agg_stage.udf is not None:
            self.namespace[f"_agg_{agg_stage.udf.name}"] = agg_stage.udf.func
            state_expr = f"_agg_{agg_stage.udf.name}()"
        else:
            state_expr = f"_aggstate_{agg_stage.builtin}()"

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
                for stage in post:
                    if isinstance(stage, ScalarUdfStage):
                        self._emit_scalar(builder, stage)
                    elif isinstance(stage, ExprStage):
                        self._emit_expr(builder, stage)
                    else:
                        raise JitError(
                            "only scalar stages may follow an aggregate "
                            "in an aggregate-kind pipeline (TF7)"
                        )
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

        input_tuple = ", ".join(name for name, _ in spec.inputs)
        trailing = "," if len(spec.inputs) == 1 else ""
        with builder.block(f"def {entry}(inp_datagen):"):
            builder.line(
                f'"""JIT-fused table UDF '
                f'({" -> ".join(_fused_from(spec))})."""'
            )
            if any(isinstance(s, DistinctStage) for s in spec.stages):
                builder.line("_seen = set()")
            with builder.block(f"for ({input_tuple}{trailing}) in inp_datagen:"):
                self._emit_stream_stages(
                    builder, list(spec.stages), early_exit="continue",
                    seen="_seen", yield_outputs=True,
                )
        builder.line()
        self._emit_expand_batch(builder, entry)
        return builder.source(), entry

    def _emit_expand_batch(self, builder: SourceBuilder, entry: str) -> None:
        """The JIT-generated *wrapper* for expand-mode execution: one
        batch loop with boundary conversions inlined (the paper's
        section 4.1 — the registration mechanism generates loop-fused
        wrapper functions, not just UDF bodies)."""
        spec = self.spec
        self.namespace.setdefault("c_to_python", None)
        self.namespace.setdefault("python_to_c", None)
        from ..udf import boundary as _boundary

        self.namespace["c_to_python"] = _boundary.c_to_python
        self.namespace["python_to_c"] = _boundary.python_to_c
        self.namespace["_OUT_TYPES"] = tuple(spec.output_types)
        counters = (self.inlined, self.called)
        # Row-level exception capture is unsound across a DistinctStage:
        # its _seen set may already contain the failed row's key, so a
        # replay could wrongly drop later rows.  Distinct pipelines keep
        # batch-level semantics (a failure de-optimizes the whole query).
        capture = not any(isinstance(s, DistinctStage) for s in spec.stages)
        with builder.block(
            f"def {entry}__expand_batch(c_inputs, size, in_types):"
        ):
            builder.line(
                '"""Fused expand wrapper: inline conversions, no '
                'per-row generators."""'
            )
            builder.line("if _obs.metrics: _obs_batch(_NAME, size)")
            builder.line("lineage = []")
            for i in range(len(spec.outputs)):
                builder.line(f"_o{i} = []")
            if not capture:
                builder.line("_seen = set()")
            for i in range(len(spec.inputs)):
                builder.line(f"_c{i} = c_inputs[{i}]")
                builder.line(f"_t{i} = in_types[{i}]")

            def _batch_tail(b: SourceBuilder) -> None:
                b.line("lineage.append(_idx)")
                for i, out in enumerate(spec.outputs):
                    b.line(f"_o{i}.append(python_to_c({out}, _OUT_TYPES[{i}]))")

            if capture:
                builder.line("_policy = _rt_policy()")
                with builder.block("for _idx in range(size):"):
                    builder.line("if not (_idx & 255): _gov_check()")
                    with builder.block("try:"):
                        with builder.block("if _FAULTS.armed:"):
                            builder.line(
                                "_FAULTS.injector.fire_row(_NAMES, _idx, "
                                "'fused')"
                            )
                        for i, (name, _) in enumerate(spec.inputs):
                            builder.line(
                                f"{name} = c_to_python(_c{i}[_idx], _t{i})"
                            )
                        self._emit_stream_stages(
                            builder, list(spec.stages), early_exit="continue",
                            seen="_seen", tail=_batch_tail,
                        )
                    with builder.block("except Exception as _exc:"):
                        # Roll back partial outputs of the failed row
                        # (lineage is non-decreasing, so its tail holds
                        # exactly this row's entries).
                        with builder.block(
                            "while lineage and lineage[-1] == _idx:"
                        ):
                            builder.line("lineage.pop()")
                            for i in range(len(spec.outputs)):
                                builder.line(f"_o{i}.pop()")
                        builder.line(
                            f"_rres = _rt_expand_row_error(_NAME, _policy, "
                            f"_exc, _idx, (lambda _i=_idx: "
                            f"{entry}__reinterp_expand(c_inputs, in_types, "
                            f"_i)))"
                        )
                        with builder.block("if _rres is None:"):
                            builder.line("lineage.append(_idx)")
                            for i in range(len(spec.outputs)):
                                builder.line(f"_o{i}.append(None)")
                        with builder.block("else:"):
                            with builder.block("for _row in _rres:"):
                                builder.line("lineage.append(_idx)")
                                for i in range(len(spec.outputs)):
                                    builder.line(f"_o{i}.append(_row[{i}])")
            else:
                with builder.block("for _idx in range(size):"):
                    builder.line("if not (_idx & 255): _gov_check()")
                    for i, (name, _) in enumerate(spec.inputs):
                        builder.line(f"{name} = c_to_python(_c{i}[_idx], _t{i})")
                    self._emit_stream_stages(
                        builder, list(spec.stages), early_exit="continue",
                        seen="_seen", tail=_batch_tail,
                    )
            outs = ", ".join(f"_o{i}" for i in range(len(spec.outputs)))
            builder.line(f"return lineage, [{outs}]")
        if capture:
            builder.line()
            with builder.block(
                f"def {entry}__reinterp_expand(c_inputs, in_types, _idx):"
            ):
                builder.line(
                    '"""Interpreted single-row replay (deopt path): '
                    'returns converted out-row tuples."""'
                )
                builder.line("_rows = []")
                for i, (name, _) in enumerate(spec.inputs):
                    builder.line(
                        f"{name} = c_to_python(c_inputs[{i}][_idx], "
                        f"in_types[{i}])"
                    )

                def _reinterp_tail(b: SourceBuilder) -> None:
                    parts = ", ".join(
                        f"python_to_c({out}, _OUT_TYPES[{i}])"
                        for i, out in enumerate(spec.outputs)
                    )
                    trailing = "," if len(spec.outputs) == 1 else ""
                    b.line(f"_rows.append(({parts}{trailing}))")

                self._emit_stream_stages(
                    builder, list(spec.stages), early_exit="return _rows",
                    seen="_seen", tail=_reinterp_tail, force_call=True,
                )
                builder.line("return _rows")
        self.inlined, self.called = counters

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
                key = ", ".join(stage.args)
                builder.line(f"_key = ({key}{',' if len(stage.args) == 1 else ''})")
                with builder.block(f"if _key in {seen}:"):
                    builder.line(early_exit)
                builder.line(f"{seen}.add(_key)")
            elif isinstance(stage, TableUdfStage):
                bound = f"_t_{stage.udf.name}"
                self.namespace[bound] = stage.udf.func
                self.called += 1
                row = ", ".join(stage.args)
                row_trailing = "," if len(stage.args) == 1 else ""
                consts = "".join(f", {c!r}" for c in stage.const_args)
                outs = ", ".join(stage.outs)
                outs_trailing = "," if len(stage.outs) == 1 else ""
                builder.line(
                    f"_gen = {bound}(iter([({row}{row_trailing})]){consts})"
                )
                builder.line(f"for ({outs}{outs_trailing}) in _gen:")
                builder.indent()
                depth_opened += 1
                # early exits inside a table loop skip that row only
                early_exit = "continue"
            elif isinstance(stage, AggregateStage):
                raise JitError("aggregate stage in stream context")
        if yield_outputs:
            out = ", ".join(spec.outputs)
            trailing = "," if len(spec.outputs) == 1 else ""
            builder.line(f"yield ({out}{trailing})")
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

        if agg_stage.udf is not None:
            self.namespace[f"_agg_{agg_stage.udf.name}"] = agg_stage.udf.func
            state_expr = f"_agg_{agg_stage.udf.name}()"
        else:
            state_expr = f"_aggstate_{agg_stage.builtin}()"

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
            input_tuple = ", ".join(name for name, _ in spec.inputs)
            trailing = "," if len(spec.inputs) == 1 else ""
            def _agg_tail(b: SourceBuilder) -> None:
                guard = self._null_guard(agg_stage.args)
                if guard:
                    with b.block(f"if {guard}:"):
                        b.line("continue")
                b.line(f"_state.step({', '.join(agg_stage.args)})")

            with builder.block(f"for ({input_tuple}{trailing}) in inp_datagen:"):
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
