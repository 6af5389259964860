"""Vectorized, operator-at-a-time executor (the MonetDB-style model).

Each operator consumes fully materialized input columns and produces fully
materialized output columns — intermediate results exist between every
pair of operators.  This is the execution model whose UDF-adjacent
materializations QFusor's fusion eliminates.

The executor returns ``(columns, size)`` pairs internally so zero-column
relations (FROM-less selects) are handled cleanly; the public entry point
wraps results into a :class:`~repro.storage.table.Table`.
"""

from __future__ import annotations

import itertools
import time
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import ExecutionError
from ..obs import METRICS, OBS
from ..obs import tracer as obs_tracer
from ..resilience.governor import checkpoint, guarded_iter
from ..resilience.governor import current as governor_current
from ..resilience.runtime import FAULTS as _FAULTS
from ..sql import ast_nodes as ast
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.table import Table
from ..types import SqlType
from ..udf.definition import UdfKind
from .expressions import FunctionResolver, VectorEvaluator, truth_mask
from .expressions import compile as compile_kernel
from .keys import factorize, join_codes, joint_column
from .plan import (
    Aggregate, CteScan, Distinct, Expand, Field, Filter, FusedFilter,
    Join, Limit, OneRow, PlanNode, Project, Requalify, Scan, SetOperation,
    Sort, TableFunctionScan,
)
from .planner import PlannedQuery

__all__ = ["VectorExecutor"]

Relation = Tuple[List[Column], int]


class VectorExecutor:
    """Operator-at-a-time executor.

    With a ``scheduler`` (a :class:`~repro.columnar.morsel.MorselScheduler`)
    of more than one thread the row-parallel operators — Filter,
    FusedFilter, and UDF-bearing Project — run over its morsel grid;
    operators whose semantics are cross-row (aggregate, join, sort,
    distinct, set ops, expand) never shard: morselizing them would need
    a merge phase.
    """

    def __init__(self, catalog: Catalog, resolver: FunctionResolver,
                 scheduler=None):
        self.catalog = catalog
        self.resolver = resolver
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, planned: PlannedQuery, result_name: str = "result") -> Table:
        ctes: Dict[str, Relation] = {}
        for name, plan in planned.ctes:
            ctes[name.lower()] = self._run(plan, ctes)
        columns, size = self._run(planned.root, ctes)
        return _as_table(result_name, planned.root.schema, columns, size)

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------

    def _run(self, node: PlanNode, ctes: Dict[str, Relation]) -> Relation:
        checkpoint()  # operator boundary: cancellation/deadline check
        if OBS.tracing or OBS.metrics:
            result = self._run_observed(node, ctes)
        else:
            result = self._dispatch(node, ctes)
        # Charge the row budget per operator output, matching the tuple
        # engine's per-operator guarded_iter semantics (rows *processed*,
        # not final result rows).
        ctx = governor_current()
        if ctx is not None:
            ctx.charge_rows(result[1])
        return result

    def _run_observed(self, node: PlanNode, ctes: Dict[str, Relation]) -> Relation:
        """Per-operator span + rows/sec metrics (observability on only)."""
        name = type(node).__name__
        sp = (
            obs_tracer.span_start(f"operator:{name}", "operator")
            if OBS.tracing else None
        )
        start = time.perf_counter()
        result = self._dispatch(node, ctes)
        size = result[1]
        if OBS.metrics:
            METRICS.counter("repro_operator_rows_total", op=name).inc(size)
            METRICS.histogram("repro_operator_seconds", op=name).observe(
                time.perf_counter() - start
            )
        if sp is not None:
            obs_tracer.span_end(sp, rows=size)
        return result

    def _dispatch(self, node: PlanNode, ctes: Dict[str, Relation]) -> Relation:
        if isinstance(node, Scan):
            table = self.catalog.get(node.table_name)
            return list(table.columns), table.num_rows
        if isinstance(node, CteScan):
            columns, size = ctes[node.cte_name.lower()]
            return list(columns), size
        if isinstance(node, OneRow):
            return [], 1
        if isinstance(node, Requalify):
            return self._run(node.child, ctes)
        if isinstance(node, Filter):
            return self._filter(node, ctes)
        if isinstance(node, FusedFilter):
            return self._fused_filter(node, ctes)
        if isinstance(node, Project):
            return self._project(node, ctes)
        if isinstance(node, Expand):
            return self._expand(node, ctes)
        if isinstance(node, Aggregate):
            return self._aggregate(node, ctes)
        if isinstance(node, Join):
            return self._join(node, ctes)
        if isinstance(node, Sort):
            return self._sort(node, ctes)
        if isinstance(node, Distinct):
            return self._distinct(node, ctes)
        if isinstance(node, Limit):
            return self._limit(node, ctes)
        if isinstance(node, SetOperation):
            return self._set_operation(node, ctes)
        if isinstance(node, TableFunctionScan):
            return self._table_function(node, ctes)
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _shards(self, size: int, calls: Iterable[str],
                udf_only: bool) -> bool:
        """Whether a row-parallel operator over ``size`` rows that calls
        the functions ``calls`` runs morsel by morsel.  ``udf_only``
        keeps operators that call no scalar UDF whole: slicing pure
        numpy work into morsels only adds concat work.  One thread never
        shards: morsels would only slice the input (dropping its
        dictionary), multiply memo lookups and concat the results, and
        the kernels and generated loops checkpoint inside a batch."""
        scheduler = self.scheduler
        if (scheduler is None or scheduler.threads <= 1
                or size <= scheduler.morsel_size):
            return False  # one morsel gains nothing from the machinery
        if _FAULTS.armed:
            # Injected faults fire at classic per-row points and may be
            # once-only: sharding would let the deopt-to-serial re-run
            # retry a transient fault away (or fire it at a different
            # row).  Fault semantics require the whole-column path.
            return False
        for name in calls:
            registered = self.resolver.udf(name)
            if registered is not None and registered.kind is UdfKind.SCALAR:
                return True
        return not udf_only

    def _map_rows(self, columns: List[Column], size: int, stage: str, fn,
                  calls: Iterable[str], udf_only: bool = False) -> List[Any]:
        """``fn(columns, n)`` over the whole input, or over zero-copy
        column slices morsel by morsel; per-range results in row order.

        Row budgets are charged once per operator in ``_run``, never per
        morsel — sharding must not change *when* a budget trips.
        """
        if not self._shards(size, calls, udf_only):
            return [fn(columns, size)]

        def run_morsel(start: int, stop: int):
            chunk = [col.slice(start, stop) for col in columns]
            return fn(chunk, stop - start)

        return self.scheduler.map_ranges(size, run_morsel, stage=stage)

    def _filter(self, node: Filter, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        # Compiled once per operator; morsel threads share the kernel.
        kernel = compile_kernel(node.predicate, node.child.schema, self.resolver)
        masks = self._map_rows(
            columns, size, "filter",
            lambda chunk, n: truth_mask(kernel(chunk, n)),
            _calls([node.predicate]),
        )
        return _keep(columns, masks)

    def _fused_filter(self, node: FusedFilter, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        registered = self.resolver.udf(node.udf_name)
        args = [
            compile_kernel(expr, node.child.schema, self.resolver)
            for expr in node.arg_exprs
        ]

        def mask_of(chunk: List[Column], n: int) -> np.ndarray:
            # The fused predicate is a scalar bool UDF (Table 3): one
            # batched invocation, then the engine applies the mask.
            return truth_mask(
                registered.call_scalar([arg(chunk, n) for arg in args], n)
            )

        masks = self._map_rows(
            columns, size, "fused_filter", mask_of,
            itertools.chain([node.udf_name], _calls(node.arg_exprs)),
        )
        return _keep(columns, masks)

    def _project(self, node: Project, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        kernels = [
            (compile_kernel(item.expr, node.child.schema, self.resolver), item.name)
            for item in node.items
        ]

        def evaluate(chunk: List[Column], n: int) -> List[Column]:
            return [kernel(chunk, n).renamed(name) for kernel, name in kernels]

        pieces = self._map_rows(
            columns, size, "project", evaluate,
            _calls(item.expr for item in node.items), udf_only=True,
        )
        if len(pieces) == 1:
            return pieces[0], size
        out = [
            Column.concat(item.name, [piece[i] for piece in pieces])
            for i, item in enumerate(node.items)
        ]
        return out, size

    def _expand(self, node: Expand, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        evaluator = VectorEvaluator(node.child.schema, self.resolver)
        arg_columns = [
            evaluator.evaluate(expr, columns, size) for expr in node.arg_exprs
        ]
        registered = self.resolver.udf(node.call.name)
        lineage, out_columns = registered.call_table_expand(
            arg_columns, size, node.const_args
        )
        # One conversion for every passthrough gather.
        lineage = np.asarray(lineage, dtype=np.int64)
        pass_columns = [
            evaluator.evaluate(item.expr, columns, size, item.name).take(lineage)
            for item in node.passthrough
        ]
        out_columns = [
            col.renamed(name) for col, name in zip(out_columns, node.out_names)
        ]
        result: List[Column] = []
        for source, index in node.layout:
            if source == "expand":
                result.append(out_columns[index])
            else:
                result.append(pass_columns[index])
        return result, len(lineage)

    def _aggregate(self, node: Aggregate, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        evaluator = VectorEvaluator(node.child.schema, self.resolver)

        if node.group_items:
            key_columns = [
                evaluator.evaluate(item.expr, columns, size, item.name)
                for item in node.group_items
            ]
            group_ids, first_rows = factorize(key_columns)
            num_groups = len(first_rows)
            out_key_columns = [col.take(first_rows) for col in key_columns]
        else:
            group_ids = np.zeros(size, dtype=np.int64)
            num_groups = 1
            out_key_columns = []

        agg_columns: List[Column] = []
        for call, field in zip(node.agg_calls, node.schema[len(node.group_items):]):
            agg_columns.append(
                self._run_aggregate_call(
                    call, field, evaluator, columns, size, group_ids, num_groups
                )
            )
        return out_key_columns + agg_columns, num_groups

    def _run_aggregate_call(
        self,
        call,
        field: Field,
        evaluator: VectorEvaluator,
        columns: Sequence[Column],
        size: int,
        group_ids: np.ndarray,
        num_groups: int,
    ) -> Column:
        arg_columns = [
            evaluator.evaluate(arg, columns, size) for arg in call.args
        ]
        if call.is_udf:
            registered = self.resolver.udf(call.func_name)
            if registered is None or registered.kind is not UdfKind.AGGREGATE:
                raise ExecutionError(f"unknown aggregate UDF {call.func_name!r}")
            if call.distinct:
                raise ExecutionError("DISTINCT is not supported for aggregate UDFs")
            values = registered.call_aggregate(
                arg_columns, size, group_ids, num_groups
            )
            return Column(field.name, field.sql_type, values, validate=False)

        builtin = self.resolver.builtin_aggregate(call.func_name)
        # numpy fast path for the common grouped sum/count over numerics
        fast = self._fast_aggregate(
            builtin, call, arg_columns, size, group_ids, num_groups, field
        )
        if fast is not None:
            return fast
        states = [builtin.make_state() for _ in range(num_groups)]
        seen: Optional[List[set]] = (
            [set() for _ in range(num_groups)] if call.distinct else None
        )
        arg_lists = [c.to_list() for c in arg_columns]
        if arg_lists:
            for i, row in enumerate(guarded_iter(zip(*arg_lists))):
                if any(v is None for v in row):
                    continue
                gid = int(group_ids[i])
                if seen is not None:
                    if row in seen[gid]:
                        continue
                    seen[gid].add(row)
                states[gid].step(*row)
        else:  # count(*)
            for i in range(size):
                states[int(group_ids[i])].step()
        values = [s.final() for s in states]
        return Column(field.name, field.sql_type, values, validate=False)

    def _fast_aggregate(
        self, builtin, call, arg_columns, size, group_ids, num_groups, field
    ) -> Optional[Column]:
        if call.distinct or size == 0:
            return None
        if builtin.name == "count" and not arg_columns:
            counts = np.bincount(group_ids, minlength=num_groups)
            return Column.from_numpy(field.name, SqlType.INT, counts.astype(np.int64))
        if builtin.name not in ("sum", "count", "avg") or len(arg_columns) != 1:
            return None
        col = arg_columns[0]
        if col.sql_type not in (SqlType.INT, SqlType.FLOAT, SqlType.BOOL):
            return None
        null = col.null_mask()
        valid = ~null
        data = np.where(valid, col.numpy(), 0)
        counts = np.bincount(group_ids[valid], minlength=num_groups)
        if builtin.name == "count":
            return Column.from_numpy(field.name, SqlType.INT, counts.astype(np.int64))
        sums = np.bincount(group_ids, weights=data.astype(np.float64), minlength=num_groups)
        empty = counts == 0
        if builtin.name == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                avgs = sums / counts
            return Column.from_numpy(field.name, SqlType.FLOAT, np.where(empty, 0.0, avgs), empty)
        if field.sql_type is SqlType.INT:
            return Column.from_numpy(field.name, SqlType.INT, sums.astype(np.int64), empty)
        return Column.from_numpy(field.name, SqlType.FLOAT, sums, empty)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------

    def _join(self, node: Join, ctes) -> Relation:
        left_cols, left_size = self._run(node.left, ctes)
        right_cols, right_size = self._run(node.right, ctes)

        equi, residual = _split_join_condition(
            node.condition, node.left.schema, node.right.schema
        )

        if equi:
            left_idx, right_idx, unmatched_left = self._hash_join(
                equi, left_cols, left_size, right_cols, right_size,
                node.left.schema, node.right.schema,
            )
        else:
            left_idx = np.repeat(np.arange(left_size), right_size)
            right_idx = np.tile(np.arange(right_size), left_size)
            unmatched_left = np.array([], dtype=np.int64)

        out_left = [c.take(left_idx) for c in left_cols]
        out_right = [c.take(right_idx) for c in right_cols]
        columns = out_left + out_right
        size = len(left_idx)

        if residual is not None:
            evaluator = VectorEvaluator(node.schema, self.resolver)
            mask = evaluator.predicate_mask(residual, columns, size)
            if node.kind == "LEFT":
                # Left rows whose matches all fail the residual also survive.
                failed = ~mask
                matched_left = set(np.asarray(left_idx)[mask].tolist())
                extra = [
                    i for i in set(np.asarray(left_idx)[failed].tolist())
                    if i not in matched_left
                ]
                unmatched_left = np.concatenate(
                    [unmatched_left, np.array(sorted(extra), dtype=np.int64)]
                )
            columns = [c.filter(mask) for c in columns]
            size = int(mask.sum())

        if node.kind == "LEFT" and len(unmatched_left):
            pad_left = [c.take(unmatched_left) for c in left_cols]
            pad_right = [
                Column(c.name, c.sql_type, [None] * len(unmatched_left), validate=False)
                for c in right_cols
            ]
            columns = [
                Column.concat(c.name, [c, p])
                for c, p in zip(columns, pad_left + pad_right)
            ]
            size += len(unmatched_left)
        return columns, size

    def _hash_join(
        self, equi, left_cols, left_size, right_cols, right_size,
        left_schema, right_schema,
    ):
        """``(left_idx, right_idx, unmatched_left)`` of an equi-join on
        key codes: every left row in order, each with its right matches
        in order, as a per-row probe of a hash table would emit them."""
        left_eval = VectorEvaluator(left_schema, self.resolver)
        right_eval = VectorEvaluator(right_schema, self.resolver)
        left_codes, right_codes, k = join_codes(
            [left_eval.evaluate(l_expr, left_cols, left_size) for l_expr, _ in equi],
            [right_eval.evaluate(r_expr, right_cols, right_size) for _, r_expr in equi],
        )
        # Right rows grouped by code, each group in row order.
        build = np.flatnonzero(right_codes >= 0)
        build_codes = right_codes[build]
        build = build[np.argsort(build_codes, kind="stable")]
        counts = np.bincount(build_codes, minlength=k)
        starts = np.cumsum(counts) - counts
        probe = np.maximum(left_codes, 0)
        matches = np.where(left_codes >= 0, counts[probe], 0)
        left_idx = np.repeat(np.arange(left_size, dtype=np.int64), matches)
        offsets = np.arange(len(left_idx)) - np.repeat(
            np.cumsum(matches) - matches, matches
        )
        right_idx = build[np.repeat(starts[probe], matches) + offsets]
        return left_idx, right_idx, np.flatnonzero(matches == 0)

    # ------------------------------------------------------------------
    # Sort / Distinct / Limit / SetOperation / TableFunctionScan
    # ------------------------------------------------------------------

    def _sort(self, node: Sort, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        evaluator = VectorEvaluator(node.child.schema, self.resolver)
        order = list(range(size))
        # Stable sorts applied from the least-significant key backwards.
        for key in reversed(node.keys):
            values = evaluator.evaluate(key.expr, columns, size).to_list()
            ascending = key.ascending
            order.sort(key=lambda i: _sort_key(values[i], ascending))
        return [c.take(order) for c in columns], size

    def _distinct(self, node: Distinct, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        _, keep = factorize(columns, size)
        return [c.take(keep) for c in columns], len(keep)

    def _limit(self, node: Limit, ctes) -> Relation:
        columns, size = self._run(node.child, ctes)
        start = node.offset
        stop = size if node.limit is None else min(start + node.limit, size)
        start = min(start, size)
        return [c.slice(start, stop) for c in columns], max(stop - start, 0)

    def _set_operation(self, node: SetOperation, ctes) -> Relation:
        left_cols, left_size = self._run(node.left, ctes)
        right_cols, right_size = self._run(node.right, ctes)
        if node.op == "UNION ALL":
            columns = [
                Column.concat(l.name, [l, r.renamed(l.name)])
                for l, r in zip(left_cols, right_cols)
            ]
            return columns, left_size + right_size
        if node.op not in ("UNION", "INTERSECT", "EXCEPT"):
            raise ExecutionError(f"unknown set operation {node.op!r}")
        joint = [joint_column(l, r) for l, r in zip(left_cols, right_cols)]
        # Set operations were never row-governed: only _run charges them.
        codes, keep = factorize(joint, left_size + right_size, charge=0)
        if node.op != "UNION":
            # First-seen numbering over left-then-right: the left rows'
            # codes are 0..m-1, first seen at keep[:m].
            in_right = np.zeros(len(keep), dtype=bool)
            in_right[codes[left_size:]] = True
            left_keep = keep < left_size
            found = in_right[left_keep]
            keep = keep[left_keep][found if node.op == "INTERSECT" else ~found]
        # The output is typed by the left input: a right value it cannot
        # hold (1.5 in an INT column) raises, as on the tuple executor.
        columns = [
            col.take(keep).renamed(f.name) if col.sql_type is f.sql_type
            else Column(f.name, f.sql_type, col.take(keep).to_list())
            for col, f in zip(joint, node.schema)
        ]
        return columns, len(keep)

    def _table_function(self, node: TableFunctionScan, ctes) -> Relation:
        registered = self.resolver.udf(node.udf_name)
        if node.input_plan is not None:
            in_columns, in_size = self._run(node.input_plan, ctes)
        else:
            in_columns, in_size = [], 0
        out_columns = registered.call_table(in_columns, in_size, node.const_args)
        out_columns = [
            col.renamed(f.name) for col, f in zip(out_columns, node.schema)
        ]
        size = len(out_columns[0]) if out_columns else 0
        return out_columns, size


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _calls(exprs: Iterable[ast.Expr]) -> Iterator[str]:
    """Names of the functions ``exprs`` call (lazily: only a sharding
    decision that got past its cheap checks walks the trees)."""
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.FunctionCall):
                yield node.name


def _keep(columns: List[Column], masks: List[np.ndarray]) -> Relation:
    mask = masks[0] if len(masks) == 1 else np.concatenate(masks)
    return [col.filter(mask) for col in columns], int(mask.sum())


def _as_table(
    name: str, schema: Sequence[Field], columns: Sequence[Column], size: int
) -> Table:
    named = [col.renamed(field.name) for col, field in zip(columns, schema)]
    if not named:  # zero-column result (e.g. FROM-less with no items): empty
        return Table(name, [])
    return Table(name, named)


class _Descending:
    """Inverts comparisons so descending sorts can keep NULLs last."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value


def _sort_key(value, ascending: bool = True):
    # NULLS LAST in both directions (the common analytic default).
    if value is None:
        return (True, 0 if ascending else _Descending(0))
    return (False, value if ascending else _Descending(value))


def _split_join_condition(
    condition: Optional[ast.Expr],
    left_schema: Sequence[Field],
    right_schema: Sequence[Field],
):
    """Split a join condition into hashable equi pairs and a residual."""
    if condition is None:
        return [], None
    conjuncts = _conjuncts(condition)
    equi: List[Tuple[ast.Expr, ast.Expr]] = []
    residual: List[ast.Expr] = []
    for conj in conjuncts:
        pair = _equi_pair(conj, left_schema, right_schema)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(conj)
    residual_expr: Optional[ast.Expr] = None
    for conj in residual:
        residual_expr = (
            conj if residual_expr is None else ast.BinaryOp("AND", residual_expr, conj)
        )
    return equi, residual_expr


def _conjuncts(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _equi_pair(expr, left_schema, right_schema):
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if _resolvable(left, left_schema) and _resolvable(right, right_schema):
        return (left, right)
    if _resolvable(right, left_schema) and _resolvable(left, right_schema):
        return (right, left)
    return None


def _resolvable(expr: ast.Expr, schema: Sequence[Field]) -> bool:
    refs = [e for e in ast.walk_expr(expr) if isinstance(e, ast.ColumnRef)]
    if not refs:
        return False
    return all(any(f.matches(r) for f in schema) for r in refs)
