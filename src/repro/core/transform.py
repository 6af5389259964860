"""Plan-level application of fusion decisions.

The paper's query-rewrite step has two paths (section 5.4): emit a new
SQL statement, or dispatch a rewritten *execution plan* directly to the
engine (the MAL path on MonetDB).  This module implements the plan path:
it walks an optimized :class:`~repro.engine.planner.PlannedQuery`,
matches the fusion patterns selected by the optimizer, generates the
fused UDFs through the JIT, registers them, and splices fused calls into
the plan.

Patterns handled (Table 2 templates in parentheses):

* scalar UDF chains inside any expression (TF1), incl. offloaded
  relational scalars — CASE, BETWEEN, comparisons, arithmetic, LIKE;
* aggregate fusion — UDF or builtin aggregates over fused scalar chains
  (TF2), with group-by staying on the engine's exported internals;
* filter offload — ``Project(Filter(...))`` with UDF-bearing predicates
  becomes an :class:`~repro.engine.plan.Expand` over a fused table UDF
  sharing the chain between predicate and projection; bare filters
  become :class:`~repro.engine.plan.FusedFilter` (F2);
* table UDF fusion — scalars into table inputs (TF3), table-over-table
  (TF4), scalars over table outputs (TF5), aggregate over table (TF6);
* DISTINCT offload into a fused table UDF (heuristic-gated).

Every transformation is correctness-preserving: if a pattern cannot be
compiled the plan is left untouched.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cache.fingerprint import trace_key
from ..engine.expressions import FunctionResolver, infer_type
from ..engine.plan import (
    Aggregate, AggCall, Distinct, Expand, Field, Filter, FusedFilter,
    PlanNode, Project, ProjectItem, Requalify, TableFunctionScan,
)
from ..engine.planner import PlannedQuery
from ..errors import CatalogError, FusionError, JitError, PlanError
from ..jit.cache import TraceCache
from ..jit.codegen import (
    AggregateStage, DistinctStage, FilterStage, FusedUdf, PipelineSpec,
    ScalarUdfStage, TableUdfStage,
)
from ..sql import ast_nodes as ast
from ..types import SqlType
from ..udf.definition import UdfKind
from ..udf.registry import UdfRegistry
from .compile import PipelineCompiler, count_scalar_udfs, expr_is_fusible
from .config import QFusorConfig
from .cost import CostModel
from .heuristics import Heuristics
from .relops import BLOCKING_AGGREGATES, PIPELINED_AGGREGATES

__all__ = ["PlanFuser", "FusionOutcome"]

# Fused-UDF names must be unique across *all* QFusor instances: several
# clients (e.g. different configuration profiles) may share one engine
# registry, and a per-instance counter would collide.
import itertools as _itertools

_FUSED_NAME_COUNTER = _itertools.count(1)


@dataclass
class FusionOutcome:
    """Result of fusing one planned query."""

    planned: PlannedQuery
    fused: List[FusedUdf] = field(default_factory=list)
    codegen_seconds: float = 0.0
    cache_hits: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def fused_count(self) -> int:
        return len(self.fused)


class PlanFuser:
    def __init__(
        self,
        registry: UdfRegistry,
        resolver: FunctionResolver,
        cost_model: CostModel,
        heuristics: Heuristics,
        config: QFusorConfig,
        cache: Optional[TraceCache] = None,
    ):
        self.registry = registry
        self.resolver = resolver
        self.cost_model = cost_model
        self.heuristics = heuristics
        self.config = config
        self.cache = cache if cache is not None else TraceCache(config.trace_cache)
        #: How fused definitions reach the engine.  Defaults to the plain
        #: registry; adapters with engine-side registration (e.g. the
        #: sqlite3 bridge) substitute their own hook so the generated
        #: CREATE FUNCTION actually runs.
        self.register_hook = lambda definition: registry.register(definition)
        #: Names of the fused UDFs this fuser put into the registry
        #: (what its owner drops again on close).
        self.registered: List[str] = []
        self._name_counter = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def fuse_query(self, planned: PlannedQuery) -> FusionOutcome:
        outcome = FusionOutcome(planned)
        if not self.config.enabled or not self.config.jit:
            return outcome
        start = time.perf_counter()
        new_ctes = [
            (name, self._transform(plan, outcome))
            for name, plan in planned.ctes
        ]
        new_root = self._transform(planned.root, outcome)
        outcome.planned = PlannedQuery(new_root, new_ctes)
        outcome.codegen_seconds = time.perf_counter() - start
        return outcome

    # ------------------------------------------------------------------
    # Registration helpers
    # ------------------------------------------------------------------

    def _fresh_name(self) -> str:
        return f"qf_fused_{next(_FUSED_NAME_COUNTER)}"

    def _register(self, spec: PipelineSpec, outcome: FusionOutcome) -> str:
        if not self.heuristics.allow_fusion(trace_key(spec.signature_key)):
            # A trace with this structure de-optimized recently; sit out
            # the cooldown rather than re-fusing a known-bad section.
            outcome.notes.append(f"blocklisted: {spec.name}")
            raise JitError(
                f"pipeline {spec.name!r} is blocklisted after a runtime "
                f"de-optimization"
            )
        fused, was_cached = self.cache.get_or_compile(spec)
        if was_cached:
            outcome.cache_hits += 1
        if self.registry.lookup(fused.definition.name) is None:
            self.register_hook(fused.definition)
            self.registered.append(fused.definition.name)
        outcome.fused.append(fused)
        return fused.definition.name

    # ------------------------------------------------------------------
    # Plan walk
    # ------------------------------------------------------------------

    def _transform(self, node: PlanNode, outcome: FusionOutcome) -> PlanNode:
        # The Project-over-Filter sandwich must be matched *before*
        # descending into the Filter, or the filter fuses on its own and
        # the shared-chain opportunity (section 5.3.2's udf1_res reuse)
        # is lost.
        if isinstance(node, Project) and isinstance(node.child, Filter):
            inner = self._transform(node.child.child, outcome)
            filter_node = Filter(inner, node.child.predicate)
            filter_node.est_rows = node.child.est_rows
            candidate = Project(filter_node, node.items, node.schema)
            candidate.est_rows = node.est_rows
            return self._apply_patterns(candidate, outcome)

        est_rows = node.est_rows
        children = [self._transform(c, outcome) for c in node.children]
        if children:
            node = node.with_children(children)
            node.est_rows = est_rows

        if isinstance(node, (Project, Filter)):
            flattened = self._flatten_derived(node)
            if flattened is not node:
                flattened.est_rows = est_rows
                return self._apply_patterns(flattened, outcome)
        return self._apply_patterns(node, outcome)

    def _apply_patterns(self, node: PlanNode, outcome: FusionOutcome) -> PlanNode:
        if isinstance(node, Project):
            if isinstance(node.child, Filter):
                fused = self._fuse_project_filter(node, outcome)
                if fused is not None:
                    return fused
                new_filter = self._fuse_bare_filter(node.child, outcome)
                if new_filter is not None:
                    node = Project(new_filter, node.items, node.schema)
            if isinstance(node.child, TableFunctionScan):
                fused = self._fuse_project_over_table(node, outcome)
                if fused is not None:
                    return fused
            fused = self._fuse_project_siblings(node, outcome)
            if fused is not None:
                return fused
            return self._fuse_project_exprs(node, outcome)
        if isinstance(node, Filter):
            fused = self._fuse_bare_filter(node, outcome)
            if fused is not None:
                return fused
            return node
        if isinstance(node, Aggregate):
            return self._fuse_aggregate(node, outcome)
        if isinstance(node, Expand):
            return self._fuse_expand(node, outcome)
        if isinstance(node, TableFunctionScan):
            return self._fuse_table_function(node, outcome)
        if isinstance(node, Distinct):
            fused = self._fuse_distinct(node, outcome)
            if fused is not None:
                return fused
            return node
        return node

    # ------------------------------------------------------------------
    # Derived-table flattening (UDF-aware subquery inlining)
    # ------------------------------------------------------------------

    def _flatten_derived(self, node: PlanNode) -> PlanNode:
        """Inline ``Requalify(Project(X))`` children into Project/Filter
        expressions, exposing cross-subquery fusion opportunities the
        native (UDF-oblivious) optimizer leaves on the table."""
        child = node.children[0] if node.children else None
        if not isinstance(child, Requalify):
            return node
        inner = child.child
        if not isinstance(inner, Project):
            return node
        # Substitution may duplicate an inner expression at several outer
        # references; that is only sound for deterministic UDFs.
        for item in inner.items:
            for expr_node in ast.walk_expr(item.expr):
                if isinstance(expr_node, ast.FunctionCall):
                    registered = self.resolver.udf(expr_node.name)
                    if registered is not None and not (
                        registered.definition.deterministic
                    ):
                        return node
        mapping: Dict[str, ast.Expr] = {
            item.name.lower(): item.expr for item in inner.items
        }

        def substitute(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.ColumnRef):
                replacement = mapping.get(expr.name.lower())
                return replacement if replacement is not None else expr
            return ast.rewrite_children(expr, substitute)

        try:
            if isinstance(node, Project):
                items = [
                    ProjectItem(substitute(item.expr), item.name)
                    for item in node.items
                ]
                return Project(inner.child, items, node.schema)
            if isinstance(node, Filter):
                lifted = Filter(inner.child, substitute(node.predicate))
                # Keep the original projection shape above the filter.
                return Project(lifted, inner.items, child.schema)
        except (PlanError, CatalogError, KeyError, TypeError,
                AttributeError) as exc:
            # Substitution can produce expressions the plan layer rejects
            # (schema/type mismatches); keep the original subtree, but
            # say so — silent catch-alls mask real runtime faults.
            warnings.warn(
                f"derived-table flattening skipped: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return node
        return node

    # ------------------------------------------------------------------
    # Expression-level fusion (TF1 + relational scalar offload)
    # ------------------------------------------------------------------

    def _fuse_project_exprs(self, node: Project, outcome: FusionOutcome) -> Project:
        items = [
            ProjectItem(
                self._fuse_expr(item.expr, node.child, outcome), item.name
            )
            for item in node.items
        ]
        return Project(node.child, items, node.schema)

    def _fuse_project_siblings(
        self, node: Project, outcome: FusionOutcome
    ) -> Optional[PlanNode]:
        """Sibling fusion: several UDF-bearing select items run in ONE
        loop — the paper's "same JIT trace" / "remove conversions"
        techniques for queries like Q9 where independent UDFs share an
        input column.  The fused pipeline is a one-row-per-row table UDF
        with one output column per item; shared inputs are decoded once
        and shared sub-chains are CSE'd.
        """
        if not (self.config.fuse_udfs and self.config.fuse_nonscalar):
            return None
        offload = self.config.offload_relational
        fusible = [
            i for i, item in enumerate(node.items)
            if count_scalar_udfs(item.expr, self.resolver) > 0
            and expr_is_fusible(item.expr, self.resolver, offload)
        ]
        if len(fusible) < 2:
            return None
        compiler = PipelineCompiler(
            node.child.schema, self.resolver, offload_relational=offload
        )
        out_vars: List[str] = []
        out_names: List[str] = []
        out_types: List[SqlType] = []
        passthrough: List[ProjectItem] = []
        layout: List[Tuple[str, int]] = []
        try:
            for i, (item, field_) in enumerate(zip(node.items, node.schema)):
                if i in fusible:
                    out_vars.append(compiler.compile(item.expr))
                    out_names.append(item.name)
                    out_types.append(field_.sql_type)
                    layout.append(("expand", len(out_vars) - 1))
                else:
                    passthrough.append(
                        ProjectItem(
                            self._fuse_expr(item.expr, node.child, outcome),
                            item.name,
                        )
                    )
                    layout.append(("pass", len(passthrough) - 1))
        except (FusionError, JitError):
            return None
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(compiler.stages),
            outputs=tuple(out_vars),
            output_types=tuple(out_types),
            output_names=tuple(out_names),
        )
        if spec.result_kind is not UdfKind.SCALAR and len(spec.outputs) < 2:
            return None
        # Force table kind: multi-output, one row per input row.
        try:
            fused_name = self._register_as_table(spec, outcome)
        except JitError:
            return None
        arg_refs = tuple(ref for _, ref, _ in compiler.inputs)
        call = ast.FunctionCall(fused_name, arg_refs)
        return Expand(
            node.child, call, arg_refs, (), tuple(out_names),
            tuple(passthrough), node.schema, tuple(layout),
        )

    def _register_as_table(self, spec: PipelineSpec, outcome: FusionOutcome) -> str:
        """Register a multi-output pipeline as a one-row-per-row table
        UDF by appending an identity TableUdfStage-free marker: the
        codegen emits a table generator whenever the spec is not purely
        scalar, so we add a no-op filter that always passes."""
        from ..jit.codegen import FilterStage as _FilterStage

        if spec.result_kind is not UdfKind.SCALAR:
            return self._register(spec, outcome)
        table_spec = PipelineSpec(
            name=spec.name,
            inputs=spec.inputs,
            stages=tuple(spec.stages) + (_FilterStage("True", ()),),
            outputs=spec.outputs,
            output_types=spec.output_types,
            output_names=spec.output_names,
        )
        return self._register(table_spec, outcome)

    def _fuse_expr(
        self, expr: ast.Expr, child: PlanNode, outcome: FusionOutcome
    ) -> ast.Expr:
        """Replace maximal fusible subtrees of ``expr`` with fused calls."""
        replaced = self._try_fuse_subtree(expr, child, outcome)
        if replaced is not None:
            return replaced
        return ast.rewrite_children(
            expr, lambda e: self._fuse_expr(e, child, outcome)
        )

    def _try_fuse_subtree(
        self, expr: ast.Expr, child: PlanNode, outcome: FusionOutcome
    ) -> Optional[ast.Expr]:
        udf_count = count_scalar_udfs(expr, self.resolver)
        if udf_count == 0:
            return None
        offload = self.config.offload_relational
        if not expr_is_fusible(expr, self.resolver, offload):
            return None
        # Trivial single-column refs wrapped in a single UDF: only JIT.
        multi = udf_count >= 2 or not isinstance(expr, ast.FunctionCall) or any(
            not isinstance(a, (ast.ColumnRef, ast.Literal)) for a in expr.args
        )
        if multi and not self.config.fuse_udfs:
            # Fusion disabled: JIT individual UDF calls only.
            return None
        compiler = PipelineCompiler(
            child.schema, self.resolver, offload_relational=offload
        )
        try:
            out_var = compiler.compile(expr)
        except (FusionError, JitError):
            return None
        out_type = infer_type(expr, child.schema, self.resolver) or SqlType.TEXT
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(compiler.stages),
            outputs=(out_var,),
            output_types=(out_type,),
        )
        if spec.result_kind is not UdfKind.SCALAR:
            return None
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        args = tuple(ref for _, ref, _ in compiler.inputs)
        return ast.FunctionCall(fused_name, args)

    # ------------------------------------------------------------------
    # Aggregate fusion (TF2, TF6, TF7)
    # ------------------------------------------------------------------

    def _fuse_aggregate(self, node: Aggregate, outcome: FusionOutcome) -> Aggregate:
        if not self.config.fuse_nonscalar:
            # Scalar-only profile (YeSQL): fuse inside argument
            # expressions but never the aggregation itself.
            group_items = [
                ProjectItem(
                    self._fuse_expr(item.expr, node.child, outcome), item.name
                )
                for item in node.group_items
            ]
            new_calls = []
            for call in node.agg_calls:
                fused_call = self._fuse_agg_args_only(call, node.child, outcome)
                new_calls.append(fused_call if fused_call is not None else call)
            return Aggregate(node.child, group_items, new_calls, node.schema)

        # TF6 first: aggregate directly over a table UDF, no grouping.
        fused_tf6 = self._fuse_aggregate_over_table(node, outcome)
        if fused_tf6 is not None:
            return fused_tf6

        group_items = [
            ProjectItem(
                self._fuse_expr(item.expr, node.child, outcome), item.name
            )
            for item in node.group_items
        ]
        new_calls: List[AggCall] = []
        for call in node.agg_calls:
            fused_call = self._fuse_agg_call(call, node.child, outcome)
            new_calls.append(fused_call if fused_call is not None else call)
        return Aggregate(node.child, group_items, new_calls, node.schema)

    def _fuse_agg_call(
        self, call: AggCall, child: PlanNode, outcome: FusionOutcome
    ) -> Optional[AggCall]:
        if call.distinct or not call.args:
            return self._fuse_agg_args_only(call, child, outcome)
        if not self.config.fuse_udfs:
            return self._fuse_agg_args_only(call, child, outcome)

        if call.is_udf:
            registered = self.resolver.udf(call.func_name)
            if registered is None or registered.definition.materializes_input:
                return self._fuse_agg_args_only(call, child, outcome)
            agg_udf = registered.definition
            agg_builtin = None
        else:
            if not self.heuristics.should_fuse_aggregation(
                _DummyOp(call.func_name)
            ):
                return self._fuse_agg_args_only(call, child, outcome)
            if call.func_name not in PIPELINED_AGGREGATES:
                return self._fuse_agg_args_only(call, child, outcome)
            agg_udf = None
            agg_builtin = call.func_name

        # Compile the argument expression(s) into a scalar prefix.
        has_udf_args = any(
            count_scalar_udfs(a, self.resolver) > 0 for a in call.args
        )
        if not has_udf_args and not call.is_udf:
            return None  # plain builtin aggregation: engine wins
        offload = self.config.offload_relational
        if not all(
            expr_is_fusible(a, self.resolver, offload) for a in call.args
        ):
            return self._fuse_agg_args_only(call, child, outcome)
        compiler = PipelineCompiler(
            child.schema, self.resolver, offload_relational=offload
        )
        try:
            arg_vars = [compiler.compile(a) for a in call.args]
        except (FusionError, JitError):
            return self._fuse_agg_args_only(call, child, outcome)
        if not compiler.stages and call.is_udf:
            return None  # bare aggregate UDF over raw columns: no gain
        out_var = f"agg_out"
        stages = list(compiler.stages)
        stages.append(
            AggregateStage(tuple(arg_vars), out_var, udf=agg_udf, builtin=agg_builtin)
        )
        out_type = _agg_result_type(call, child, self.resolver)
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(stages),
            outputs=(out_var,),
            output_types=(out_type,),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return self._fuse_agg_args_only(call, child, outcome)
        args = tuple(ref for _, ref, _ in compiler.inputs)
        return AggCall(fused_name, args, False, call.out_name, is_udf=True)

    def _fuse_agg_args_only(
        self, call: AggCall, child: PlanNode, outcome: FusionOutcome
    ) -> Optional[AggCall]:
        """Fallback: fuse scalar chains *inside* the aggregate's argument
        expressions but keep the aggregation itself where it was."""
        new_args = tuple(
            self._fuse_expr(a, child, outcome) for a in call.args
        )
        if new_args == call.args:
            return None
        return AggCall(call.func_name, new_args, call.distinct, call.out_name,
                       call.is_udf)

    def _fuse_aggregate_over_table(
        self, node: Aggregate, outcome: FusionOutcome
    ) -> Optional[Aggregate]:
        """TF6: aggregate over a table UDF with no group-by in between."""
        if node.group_items or not self.config.fuse_udfs:
            return None
        child = node.child
        if not isinstance(child, TableFunctionScan):
            return None
        if child.input_plan is None:
            return None
        table_udf = self.resolver.udf(child.udf_name)
        if table_udf is None or table_udf.definition.materializes_input:
            return None
        if len(node.agg_calls) != 1:
            return None
        call = node.agg_calls[0]
        if call.distinct or len(call.args) != 1:
            return None
        arg = call.args[0]
        if not isinstance(arg, ast.ColumnRef):
            return None
        try:
            out_index = child.resolve(arg)
        except (PlanError, CatalogError, KeyError) as exc:
            warnings.warn(
                f"TF6 aggregate-over-table fusion skipped: cannot resolve "
                f"{arg!r} against the table UDF's outputs: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if call.is_udf:
            registered = self.resolver.udf(call.func_name)
            if registered is None or registered.definition.materializes_input:
                return None
            agg_udf, agg_builtin = registered.definition, None
        else:
            if call.func_name in BLOCKING_AGGREGATES:
                return None
            if not self.heuristics.should_fuse_aggregation(
                _DummyOp(call.func_name)
            ):
                return None
            agg_udf, agg_builtin = None, call.func_name

        input_schema = child.input_plan.schema
        inputs = tuple(
            (f"in{i}", f.sql_type) for i, f in enumerate(input_schema)
        )
        outs = tuple(f"t{i}" for i in range(len(child.schema)))
        stages: Tuple = (
            TableUdfStage(
                table_udf.definition,
                tuple(name for name, _ in inputs),
                child.const_args,
                outs,
            ),
            AggregateStage((outs[out_index],), "agg_out",
                           udf=agg_udf, builtin=agg_builtin),
        )
        out_type = node.schema[0].sql_type
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=inputs,
            stages=stages,
            outputs=("agg_out",),
            output_types=(out_type,),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        arg_refs = tuple(
            ast.ColumnRef(f.name, table=f.qualifier) for f in input_schema
        )
        fused_call = AggCall(fused_name, arg_refs, False, call.out_name, True)
        return Aggregate(child.input_plan, (), (fused_call,), node.schema)

    # ------------------------------------------------------------------
    # Filter fusion (F2)
    # ------------------------------------------------------------------

    def _filter_keep_fraction(self, node: Filter) -> Optional[float]:
        child_rows = node.child.est_rows
        rows = node.est_rows
        if child_rows and rows is not None and child_rows > 0:
            return rows / child_rows
        return None

    def _fuse_project_filter(
        self, node: Project, outcome: FusionOutcome
    ) -> Optional[PlanNode]:
        """``Project(Filter(X))`` where predicate and/or items carry UDF
        chains -> one Expand over a fused table UDF."""
        if not (self.config.fuse_udfs and self.config.offload_relational):
            return None
        filter_node = node.child
        assert isinstance(filter_node, Filter)
        predicate = filter_node.predicate
        offload = True
        pred_udfs = count_scalar_udfs(predicate, self.resolver)
        item_udfs = sum(
            count_scalar_udfs(item.expr, self.resolver) for item in node.items
        )
        if pred_udfs == 0:
            return None  # plain filters stay in the engine
        if not expr_is_fusible(predicate, self.resolver, offload):
            return None
        keep = self._filter_keep_fraction(filter_node)
        udf_ops = [_DummyOp(f"udf{i}", rows=filter_node.child.est_rows)
                   for i in range(max(pred_udfs + item_udfs, 1))]
        if not self.heuristics.should_fuse_filter(
            _DummyOp("filter", kind="filter", rows=filter_node.child.est_rows),
            udf_ops, keep,
        ):
            return None

        base = filter_node.child
        compiler = PipelineCompiler(
            base.schema, self.resolver, offload_relational=True
        )
        try:
            pred_var = compiler.compile(predicate)
        except (FusionError, JitError):
            return None
        pred_stage_count = len(compiler.stages)
        # Items that are fusible join the pipeline as outputs; the rest
        # become Expand passthrough (evaluated over the child, filtered by
        # lineage).  Item stages compile *after* the predicate, so in the
        # generated loop they run only for surviving rows; shared
        # sub-chains are reused through the compiler's CSE.
        out_vars: List[str] = []
        out_names: List[str] = []
        out_types: List[SqlType] = []
        passthrough: List[ProjectItem] = []
        layout: List[Tuple[str, int]] = []
        for item, field_ in zip(node.items, node.schema):
            # Plain column refs and UDF-free expressions stay engine-side
            # passthrough (no reason to route them through the boundary);
            # UDF-bearing items join the pipeline and share stages with
            # the predicate via CSE.
            if count_scalar_udfs(item.expr, self.resolver) > 0 and (
                expr_is_fusible(item.expr, self.resolver, offload)
            ):
                try:
                    var = compiler.compile(item.expr)
                except (FusionError, JitError):
                    passthrough.append(item)
                    layout.append(("pass", len(passthrough) - 1))
                    continue
                out_vars.append(var)
                out_names.append(item.name)
                out_types.append(field_.sql_type)
                layout.append(("expand", len(out_vars) - 1))
            else:
                passthrough.append(item)
                layout.append(("pass", len(passthrough) - 1))
        stages: List = (
            list(compiler.stages[:pred_stage_count])
            + [FilterStage(f"{pred_var} is True", ())]
            + list(compiler.stages[pred_stage_count:])
        )
        if not out_vars:
            # Nothing projected from the pipeline: plain fused filter.
            fused_filter = self._build_fused_filter(
                filter_node, compiler, pred_var, outcome
            )
            if fused_filter is None:
                return None
            return Project(fused_filter, node.items, node.schema)

        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(stages),
            outputs=tuple(out_vars),
            output_types=tuple(out_types),
            output_names=tuple(out_names),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        arg_refs = tuple(ref for _, ref, _ in compiler.inputs)
        call = ast.FunctionCall(fused_name, arg_refs)
        return Expand(
            base, call, arg_refs, (), tuple(out_names), tuple(passthrough),
            node.schema, tuple(layout),
        )

    def _fuse_bare_filter(
        self, node: Filter, outcome: FusionOutcome
    ) -> Optional[PlanNode]:
        if not (self.config.fuse_udfs and self.config.offload_relational):
            return None
        predicate = node.predicate
        pred_udfs = count_scalar_udfs(predicate, self.resolver)
        if pred_udfs == 0:
            return None
        if not expr_is_fusible(predicate, self.resolver, True):
            return None
        keep = self._filter_keep_fraction(node)
        udf_ops = [_DummyOp(f"udf{i}", rows=node.child.est_rows)
                   for i in range(pred_udfs)]
        if not self.heuristics.should_fuse_filter(
            _DummyOp("filter", kind="filter", rows=node.child.est_rows),
            udf_ops, keep,
        ):
            return None
        compiler = PipelineCompiler(
            node.child.schema, self.resolver, offload_relational=True
        )
        try:
            pred_var = compiler.compile(predicate)
        except (FusionError, JitError):
            return None
        return self._build_fused_filter(node, compiler, pred_var, outcome)

    def _build_fused_filter(
        self,
        node: Filter,
        compiler: PipelineCompiler,
        pred_var: str,
        outcome: FusionOutcome,
    ) -> Optional[FusedFilter]:
        # The offloaded filter is a *scalar* UDF returning bool (Table 3:
        # "filter: scalar, row -> bool"): one batched wrapper invocation
        # computes the whole predicate column, the engine applies the
        # mask.  All interior UDF/relational stages fuse into the loop.
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(compiler.stages),
            outputs=(pred_var,),
            output_types=(SqlType.BOOL,),
        )
        if spec.result_kind is not UdfKind.SCALAR:
            return None
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        arg_refs = tuple(ref for _, ref, _ in compiler.inputs)
        return FusedFilter(node.child, fused_name, arg_refs)

    # ------------------------------------------------------------------
    # Table UDF fusion (TF3, TF4, TF5)
    # ------------------------------------------------------------------

    def _fuse_expand(self, node: Expand, outcome: FusionOutcome) -> Expand:
        """TF3 for select-list table UDFs: fold scalar chains in the
        arguments into the table UDF's pipeline."""
        if not self.config.fuse_udfs:
            return node
        if not self.config.fuse_nonscalar or not any(
            count_scalar_udfs(e, self.resolver) > 0 for e in node.arg_exprs
        ):
            new_pass = tuple(
                ProjectItem(
                    self._fuse_expr(i.expr, node.child, outcome), i.name
                )
                for i in node.passthrough
            )
            return Expand(
                node.child, node.call, node.arg_exprs, node.const_args,
                node.out_names, new_pass, node.schema, node.layout,
            )
        offload = self.config.offload_relational
        if not all(
            expr_is_fusible(e, self.resolver, offload) for e in node.arg_exprs
        ):
            return node
        table_udf = self.resolver.udf(node.call.name)
        if table_udf is None or table_udf.definition.materializes_input:
            return node
        compiler = PipelineCompiler(
            node.child.schema, self.resolver, offload_relational=offload
        )
        try:
            arg_vars = [compiler.compile(e) for e in node.arg_exprs]
        except (FusionError, JitError):
            return node
        outs = tuple(f"t{i}" for i in range(len(node.out_names)))
        stages = list(compiler.stages)
        stages.append(
            TableUdfStage(
                table_udf.definition, tuple(arg_vars), node.const_args, outs
            )
        )
        out_types = tuple(
            table_udf.definition.signature.return_types[
                : len(node.out_names)
            ]
        )
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(stages),
            outputs=outs,
            output_types=out_types,
            output_names=tuple(node.out_names),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return node
        arg_refs = tuple(ref for _, ref, _ in compiler.inputs)
        new_pass = tuple(
            ProjectItem(self._fuse_expr(i.expr, node.child, outcome), i.name)
            for i in node.passthrough
        )
        call = ast.FunctionCall(fused_name, arg_refs)
        return Expand(
            node.child, call, arg_refs, (), node.out_names, new_pass,
            node.schema, node.layout,
        )

    def _fuse_table_function(
        self, node: TableFunctionScan, outcome: FusionOutcome
    ) -> TableFunctionScan:
        """TF3 (input scalars) and TF4 (table over table) for FROM-clause
        table UDFs."""
        if not self.config.fuse_udfs or node.input_plan is None:
            return node
        if not self.config.fuse_nonscalar:
            return node
        table_udf = self.resolver.udf(node.udf_name)
        if table_udf is None or table_udf.definition.materializes_input:
            return node

        inner = node.input_plan
        # TF4: table UDF directly over another table UDF.
        if isinstance(inner, TableFunctionScan):
            inner_udf = self.resolver.udf(inner.udf_name)
            if inner_udf is not None and not inner_udf.definition.materializes_input:
                composed = self._compose_table_over_table(
                    node, inner, table_udf.definition,
                    inner_udf.definition, outcome,
                )
                if composed is not None:
                    return composed
            return node

        # TF3: scalar chains computed in the input projection.
        if not isinstance(inner, Project):
            return node
        offload = self.config.offload_relational
        if not any(
            count_scalar_udfs(i.expr, self.resolver) > 0 for i in inner.items
        ):
            return node
        if not all(
            expr_is_fusible(i.expr, self.resolver, offload) for i in inner.items
        ):
            return node
        compiler = PipelineCompiler(
            inner.child.schema, self.resolver, offload_relational=offload
        )
        try:
            arg_vars = [compiler.compile(i.expr) for i in inner.items]
        except (FusionError, JitError):
            return node
        outs = tuple(f"t{i}" for i in range(len(node.schema)))
        stages = list(compiler.stages)
        stages.append(
            TableUdfStage(
                table_udf.definition, tuple(arg_vars), node.const_args, outs
            )
        )
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(stages),
            outputs=outs,
            output_types=tuple(f.sql_type for f in node.schema),
            output_names=tuple(f.name for f in node.schema),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return node
        leaf_items = [
            ProjectItem(ref, f"l{i}")
            for i, (_, ref, _) in enumerate(compiler.inputs)
        ]
        leaf_fields = [
            Field(f"l{i}", t, None)
            for i, (_, _, t) in enumerate(compiler.inputs)
        ]
        new_input = Project(inner.child, leaf_items, leaf_fields)
        return TableFunctionScan(
            fused_name, node.binding, new_input, (), node.schema
        )

    def _compose_table_over_table(
        self, outer, inner, outer_def, inner_def, outcome
    ) -> Optional[TableFunctionScan]:
        input_plan = inner.input_plan
        if input_plan is None:
            return None
        inputs = tuple(
            (f"in{i}", f.sql_type) for i, f in enumerate(input_plan.schema)
        )
        inner_outs = tuple(f"m{i}" for i in range(len(inner.schema)))
        outer_outs = tuple(f"t{i}" for i in range(len(outer.schema)))
        stages = (
            TableUdfStage(
                inner_def, tuple(n for n, _ in inputs), inner.const_args,
                inner_outs,
            ),
            TableUdfStage(outer_def, inner_outs, outer.const_args, outer_outs),
        )
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=inputs,
            stages=stages,
            outputs=outer_outs,
            output_types=tuple(f.sql_type for f in outer.schema),
            output_names=tuple(f.name for f in outer.schema),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        return TableFunctionScan(
            fused_name, outer.binding, input_plan, (), outer.schema
        )

    # ------------------------------------------------------------------
    # Distinct offload
    # ------------------------------------------------------------------

    def _fuse_distinct(
        self, node: Distinct, outcome: FusionOutcome
    ) -> Optional[PlanNode]:
        if not (self.config.fuse_udfs and self.config.offload_relational):
            return None
        child = node.child
        if not isinstance(child, Project):
            return None
        offload = True
        udfs = sum(count_scalar_udfs(i.expr, self.resolver) for i in child.items)
        if udfs == 0:
            return None
        if not all(
            expr_is_fusible(i.expr, self.resolver, offload) for i in child.items
        ):
            return None
        drop = None
        if node.est_rows is not None and child.est_rows:
            drop = 1.0 - node.est_rows / child.est_rows
        if not self.heuristics.should_fuse_distinct(drop):
            return None
        compiler = PipelineCompiler(
            child.child.schema, self.resolver, offload_relational=offload
        )
        try:
            out_vars = [compiler.compile(i.expr) for i in child.items]
        except (FusionError, JitError):
            return None
        stages = list(compiler.stages)
        stages.append(DistinctStage(tuple(out_vars)))
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=tuple((v, t) for v, _, t in compiler.inputs),
            stages=tuple(stages),
            outputs=tuple(out_vars),
            output_types=tuple(f.sql_type for f in node.schema),
            output_names=tuple(f.name for f in node.schema),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        arg_refs = tuple(ref for _, ref, _ in compiler.inputs)
        call = ast.FunctionCall(fused_name, arg_refs)
        layout = tuple(("expand", i) for i in range(len(node.schema)))
        return Expand(
            child.child, call, arg_refs, (),
            tuple(f.name for f in node.schema), (), node.schema, layout,
        )

    def _fuse_project_over_table(
        self, node: Project, outcome: FusionOutcome
    ) -> Optional[PlanNode]:
        """TF5: scalar chains over a table UDF's outputs."""
        if not self.config.fuse_udfs or not self.config.fuse_nonscalar:
            return None
        child = node.child
        assert isinstance(child, TableFunctionScan)
        table_udf = self.resolver.udf(child.udf_name)
        if table_udf is None or table_udf.definition.materializes_input:
            return None
        offload = self.config.offload_relational
        if not any(
            count_scalar_udfs(i.expr, self.resolver) > 0 for i in node.items
        ):
            return None
        if not all(
            expr_is_fusible(i.expr, self.resolver, offload) for i in node.items
        ):
            return None
        if child.input_plan is None:
            return None
        input_schema = child.input_plan.schema
        inputs = tuple(
            (f"in{i}", f.sql_type) for i, f in enumerate(input_schema)
        )
        table_outs = tuple(f"m{i}" for i in range(len(child.schema)))
        stages: List = [
            TableUdfStage(
                table_udf.definition, tuple(n for n, _ in inputs),
                child.const_args, table_outs,
            )
        ]
        # The projection's expressions see the table outputs; compile them
        # over a synthetic schema mapped to the table-out variables.
        compiler = PipelineCompiler(
            child.schema, self.resolver, offload_relational=offload
        )
        # Pre-seed inputs so column refs bind to table-out vars.
        for (var, field_) in zip(table_outs, child.schema):
            key = (field_.name.lower(), (field_.qualifier or "").lower())
            compiler._input_by_key[key] = var
            key_unqualified = (field_.name.lower(), "")
            compiler._input_by_key.setdefault(key_unqualified, var)
        try:
            out_vars = [compiler.compile(i.expr) for i in node.items]
        except (FusionError, JitError):
            return None
        if compiler.inputs:
            return None  # an item referenced something outside the table
        stages.extend(compiler.stages)
        spec = PipelineSpec(
            name=self._fresh_name(),
            inputs=inputs,
            stages=tuple(stages),
            outputs=tuple(out_vars),
            output_types=tuple(f.sql_type for f in node.schema),
            output_names=tuple(f.name for f in node.schema),
        )
        try:
            fused_name = self._register(spec, outcome)
        except JitError:
            return None
        schema = [
            Field(f.name, f.sql_type, child.binding) for f in node.schema
        ]
        fused_scan = TableFunctionScan(
            fused_name, child.binding, child.input_plan, (), schema
        )
        # Keep the original output schema (names/qualifiers) via Project.
        items = [
            ProjectItem(ast.ColumnRef(f.name, table=child.binding), f.name)
            for f in node.schema
        ]
        return Project(fused_scan, items, node.schema)


class _DummyOp:
    """A minimal Operator-like carrier for heuristic/cost queries made
    outside the DFG context."""

    def __init__(self, name: str, kind: str = "scalar_udf", rows=None):
        self.name = name
        self.kind = kind
        self.is_udf = kind.endswith("_udf")
        self.udf = None
        self.plan_node = None
        self._rows = rows

    @property
    def est_rows(self):
        return self._rows


def _agg_result_type(call: AggCall, child: PlanNode, resolver) -> SqlType:
    if call.is_udf:
        registered = resolver.udf(call.func_name)
        return registered.definition.signature.return_types[0]
    from ..engine.functions import BUILTIN_AGGREGATES

    builtin = BUILTIN_AGGREGATES[call.func_name]
    arg_types = [infer_type(a, child.schema, resolver) for a in call.args]
    return builtin.result_type(arg_types)
