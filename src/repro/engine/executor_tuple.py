"""Tuple-at-a-time executor (the SQLite-style model).

Operators are Python generators pulling one row at a time from their
children — fully pipelined, no intermediate materialization, but with
per-row interpretation overhead and, crucially, *one UDF boundary round
trip per row per UDF call* (the "numerous foreign function calls" cost the
paper attributes to tuple-at-a-time engines).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..obs import METRICS, OBS
from ..obs import tracer as obs_tracer
from ..resilience.governor import guarded_iter
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.table import Table
from ..types import SqlType
from ..udf import boundary
from ..udf.definition import UdfKind
from .expressions import FunctionResolver, RowEvaluator
from .plan import (
    Aggregate, CteScan, Distinct, Expand, Field, Filter, FusedFilter,
    Join, Limit, OneRow, PlanNode, Project, Requalify, Scan, SetOperation,
    Sort, TableFunctionScan,
)
from .planner import PlannedQuery

__all__ = ["TupleExecutor"]

Row = Tuple[Any, ...]


class TupleExecutor:
    def __init__(self, catalog: Catalog, resolver: FunctionResolver):
        self.catalog = catalog
        self.resolver = resolver

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, planned: PlannedQuery, result_name: str = "result") -> Table:
        ctes: Dict[str, List[Row]] = {}
        for name, plan in planned.ctes:
            ctes[name.lower()] = list(guarded_iter(self._rows(plan, ctes)))
        rows = list(guarded_iter(self._rows(planned.root, ctes)))
        schema = [(f.name, f.sql_type) for f in planned.root.schema]
        return Table.from_rows(result_name, schema, rows)

    # ------------------------------------------------------------------
    # Row generators per node
    # ------------------------------------------------------------------

    def _rows(self, node: PlanNode, ctes) -> Iterator[Row]:
        if OBS.tracing or OBS.metrics:
            return self._observed_rows(
                type(node).__name__, self._dispatch(node, ctes)
            )
        return self._dispatch(node, ctes)

    def _observed_rows(self, name: str, rows: Iterable[Row]) -> Iterator[Row]:
        """Wrap an operator's row stream with a span + rows/sec metrics.

        Operators are pull-based generators whose open/close order is not
        LIFO, so the span is *explicitly parented* to the span current at
        construction (the adapter's ``execute`` span) rather than pushed
        on the thread's stack — well-nestedness of stack-managed spans is
        preserved while pipelined operators visibly overlap in the trace.
        """
        sp = None
        if OBS.tracing:
            parent = obs_tracer.current_span()
            if parent is not None:
                sp = obs_tracer.span_start(
                    f"operator:{name}", "operator", parent=parent
                )
        count = 0
        start = time.perf_counter()
        try:
            for row in rows:
                count += 1
                yield row
        finally:
            if OBS.metrics:
                METRICS.counter("repro_operator_rows_total", op=name).inc(count)
                METRICS.histogram("repro_operator_seconds", op=name).observe(
                    time.perf_counter() - start
                )
            if sp is not None:
                obs_tracer.span_end(sp, rows=count)

    def _dispatch(self, node: PlanNode, ctes) -> Iterator[Row]:
        if isinstance(node, Scan):
            return self.catalog.get(node.table_name).rows()
        if isinstance(node, CteScan):
            return iter(ctes[node.cte_name.lower()])
        if isinstance(node, OneRow):
            return iter([()])
        if isinstance(node, Requalify):
            return self._rows(node.child, ctes)
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

    def _filter(self, node: Filter, ctes) -> Iterator[Row]:
        evaluator = RowEvaluator(node.child.schema, self.resolver)
        for row in self._rows(node.child, ctes):
            if evaluator.evaluate(node.predicate, row) is True:
                yield row

    def _fused_filter(self, node: FusedFilter, ctes) -> Iterator[Row]:
        from .expressions import infer_type

        evaluator = RowEvaluator(node.child.schema, self.resolver)
        registered = self.resolver.udf(node.udf_name)
        definition = registered.definition
        in_types = tuple(
            infer_type(e, node.child.schema, self.resolver) or SqlType.TEXT
            for e in node.arg_exprs
        )
        for row in self._rows(node.child, ctes):
            args = tuple(
                boundary.c_to_python(
                    boundary.engine_to_c(evaluator.evaluate(e, row), t), t
                )
                for e, t in zip(node.arg_exprs, in_types)
            )
            if definition.func(*args) is True:
                yield row

    def _project(self, node: Project, ctes) -> Iterator[Row]:
        evaluator = RowEvaluator(node.child.schema, self.resolver)
        exprs = [item.expr for item in node.items]
        for row in self._rows(node.child, ctes):
            yield tuple(evaluator.evaluate(expr, row) for expr in exprs)

    def _expand(self, node: Expand, ctes) -> Iterator[Row]:
        from .expressions import infer_type

        evaluator = RowEvaluator(node.child.schema, self.resolver)
        registered = self.resolver.udf(node.call.name)
        definition = registered.definition
        in_types = tuple(
            infer_type(e, node.child.schema, self.resolver) or SqlType.TEXT
            for e in node.arg_exprs
        )
        out_types = definition.signature.return_types
        num_out = len(node.out_names)
        for row in self._rows(node.child, ctes):
            args = tuple(
                boundary.c_to_python(
                    boundary.engine_to_c(evaluator.evaluate(e, row), t), t
                )
                for e, t in zip(node.arg_exprs, in_types)
            )
            passthrough = [
                evaluator.evaluate(item.expr, row) for item in node.passthrough
            ]
            for out_row in definition.func(iter([args]), *node.const_args):
                converted = [
                    boundary.c_to_engine(boundary.python_to_c(v, t), t)
                    for v, t in zip(out_row[:num_out], out_types)
                ]
                yield tuple(
                    converted[index] if source == "expand" else passthrough[index]
                    for source, index in node.layout
                )

    def _aggregate(self, node: Aggregate, ctes) -> Iterator[Row]:
        from .expressions import infer_type

        evaluator = RowEvaluator(node.child.schema, self.resolver)
        groups: Dict[Tuple, List[Any]] = {}
        order: List[Tuple] = []

        call_arg_types = [
            tuple(
                infer_type(a, node.child.schema, self.resolver) or SqlType.TEXT
                for a in call.args
            )
            for call in node.agg_calls
        ]
        call_out_types = []
        # Which calls skip a row whose arguments are all NULL: every
        # builtin, and the UDFs whose definition says so.
        skips_null = []
        for call in node.agg_calls:
            if call.is_udf:
                registered = self.resolver.udf(call.func_name)
                call_out_types.append(
                    registered.definition.signature.return_types[0]
                )
                skips_null.append(registered.definition.skips_null_rows())
            else:
                call_out_types.append(None)  # builtins stay engine-side
                skips_null.append(True)

        def make_states():
            states = []
            for call in node.agg_calls:
                if call.is_udf:
                    registered = self.resolver.udf(call.func_name)
                    states.append(registered.definition.func())
                else:
                    builtin = self.resolver.builtin_aggregate(call.func_name)
                    states.append(builtin.make_state())
            return states

        distinct_seen: Dict[Tuple, List[set]] = {}
        for row in guarded_iter(self._rows(node.child, ctes)):
            key = tuple(
                evaluator.evaluate(item.expr, row) for item in node.group_items
            )
            if key not in groups:
                groups[key] = make_states()
                order.append(key)
                distinct_seen[key] = [set() for _ in node.agg_calls]
            states = groups[key]
            for idx, call in enumerate(node.agg_calls):
                args = tuple(evaluator.evaluate(a, row) for a in call.args)
                if skips_null[idx] and call.args and all(a is None for a in args):
                    continue
                if call.distinct:
                    if args in distinct_seen[key][idx]:
                        continue
                    distinct_seen[key][idx].add(args)
                if call.is_udf:
                    # One boundary round trip per row (tuple-at-a-time).
                    args = tuple(
                        boundary.c_to_python(boundary.engine_to_c(v, t), t)
                        for v, t in zip(args, call_arg_types[idx])
                    )
                states[idx].step(*args)

        def finalize(states) -> Tuple:
            out = []
            for state, out_type in zip(states, call_out_types):
                value = state.final()
                if out_type is not None:
                    value = boundary.c_to_engine(
                        boundary.python_to_c(value, out_type), out_type
                    )
                out.append(value)
            return tuple(out)

        if not groups and not node.group_items:
            yield finalize(make_states())
            return
        for key in order:
            yield key + finalize(groups[key])

    def _join(self, node: Join, ctes) -> Iterator[Row]:
        from .executor_vector import _split_join_condition

        right_rows = list(guarded_iter(self._rows(node.right, ctes)))
        equi, residual = _split_join_condition(
            node.condition, node.left.schema, node.right.schema
        )
        evaluator = RowEvaluator(node.schema, self.resolver)

        if equi:
            # Hash join on the equi keys; residual applied per pair.
            right_eval = RowEvaluator(node.right.schema, self.resolver)
            left_eval = RowEvaluator(node.left.schema, self.resolver)
            index: Dict[Tuple, List[Row]] = {}
            for right_row in right_rows:
                key = tuple(right_eval.evaluate(e, right_row) for _, e in equi)
                if any(k is None for k in key):
                    continue
                index.setdefault(key, []).append(right_row)
            for left_row in guarded_iter(self._rows(node.left, ctes)):
                key = tuple(left_eval.evaluate(e, left_row) for e, _ in equi)
                matched = False
                if not any(k is None for k in key):
                    for right_row in index.get(key, ()):
                        combined = left_row + right_row
                        if residual is None or evaluator.evaluate(
                            residual, combined
                        ) is True:
                            matched = True
                            yield combined
                if node.kind == "LEFT" and not matched:
                    yield left_row + tuple(None for _ in node.right.schema)
            return

        # Fallback: nested loop with the right side materialized.
        for left_row in self._rows(node.left, ctes):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if node.condition is None or evaluator.evaluate(
                    node.condition, combined
                ) is True:
                    matched = True
                    yield combined
            if node.kind == "LEFT" and not matched:
                yield left_row + tuple(None for _ in node.right.schema)

    def _sort(self, node: Sort, ctes) -> Iterator[Row]:
        from .executor_vector import _sort_key

        evaluator = RowEvaluator(node.child.schema, self.resolver)
        rows = list(guarded_iter(self._rows(node.child, ctes)))
        for key in reversed(node.keys):
            expr, ascending = key.expr, key.ascending
            rows.sort(
                key=lambda row: _sort_key(evaluator.evaluate(expr, row), ascending)
            )
        return iter(rows)

    def _distinct(self, node: Distinct, ctes) -> Iterator[Row]:
        seen = set()
        for row in self._rows(node.child, ctes):
            if row not in seen:
                seen.add(row)
                yield row

    def _limit(self, node: Limit, ctes) -> Iterator[Row]:
        skipped = 0
        produced = 0
        for row in self._rows(node.child, ctes):
            if skipped < node.offset:
                skipped += 1
                continue
            if node.limit is not None and produced >= node.limit:
                return
            produced += 1
            yield row

    def _set_operation(self, node: SetOperation, ctes) -> Iterator[Row]:
        if node.op == "UNION ALL":
            yield from self._rows(node.left, ctes)
            yield from self._rows(node.right, ctes)
            return
        left_rows = list(self._rows(node.left, ctes))
        right_rows = list(self._rows(node.right, ctes))
        if node.op == "UNION":
            yield from dict.fromkeys(left_rows + right_rows)
        elif node.op in ("INTERSECT", "EXCEPT"):
            keep = node.op == "INTERSECT"
            right_set = set(right_rows)
            yield from dict.fromkeys(
                r for r in left_rows if (r in right_set) is keep
            )
        else:
            raise ExecutionError(f"unknown set operation {node.op!r}")

    def _table_function(self, node: TableFunctionScan, ctes) -> Iterator[Row]:
        registered = self.resolver.udf(node.udf_name)
        definition = registered.definition
        if node.input_plan is not None:
            input_rows = self._rows(node.input_plan, ctes)
        else:
            input_rows = iter(())
        # Fully pipelined: the generator pulls input rows lazily, each row
        # crossing the boundary individually.
        in_types = tuple(f.sql_type for f in (node.input_plan.schema if node.input_plan is not None else ()))

        def datagen():
            for row in input_rows:
                yield tuple(
                    boundary.c_to_python(
                        boundary.engine_to_c(v, t), t
                    )
                    for v, t in zip(row, in_types)
                )

        out_types = definition.signature.return_types
        for out_row in definition.func(datagen(), *node.const_args):
            yield tuple(
                boundary.c_to_engine(boundary.python_to_c(v, t), t)
                for v, t in zip(out_row, out_types)
            )
