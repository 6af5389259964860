"""Logical plan nodes.

The planner lowers SQL ASTs into trees of these nodes; both executors
interpret them, the native optimizer rewrites them, and QFusor's client
parses them (through EXPLAIN) to build its data-flow graph.

Every node carries an output schema of :class:`Field` entries (name, type,
optional qualifier) plus optimizer annotations (row estimates).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..errors import PlanError
from ..sql import ast_nodes as ast
from ..types import SqlType

__all__ = [
    "Field", "bind_column", "PlanNode", "Scan", "CteScan", "Project", "ProjectItem",
    "Expand", "Filter", "Aggregate", "AggCall", "Join", "Sort", "SortKey",
    "Distinct", "Limit", "SetOperation", "TableFunctionScan", "OneRow",
    "Requalify", "FusedFilter", "walk_plan",
]


@dataclass(frozen=True)
class Field:
    """One output column of a plan node."""

    name: str
    sql_type: SqlType
    qualifier: Optional[str] = None

    def matches(self, ref: ast.ColumnRef) -> bool:
        if ref.name.lower() != self.name.lower():
            return False
        if ref.table is None:
            return True
        return self.qualifier is not None and ref.table.lower() == self.qualifier.lower()

    def __str__(self) -> str:
        prefix = f"{self.qualifier}." if self.qualifier else ""
        return f"{prefix}{self.name}:{self.sql_type}"


def bind_column(fields: Sequence[Field], ref: ast.ColumnRef) -> int:
    """The position ``ref`` names in ``fields`` — the one binder the
    planner and both evaluators share.  An unqualified ref that matches
    several fields resolves to the single unqualified one among them."""
    matches = [i for i, f in enumerate(fields) if f.matches(ref)]
    if len(matches) > 1 and ref.table is None:
        matches = [i for i in matches if fields[i].qualifier is None] or matches
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise PlanError(f"ambiguous column {ref.qualified!r}")
    raise PlanError(
        f"unknown column {ref.qualified!r}; available: {[str(f) for f in fields]}"
    )


class PlanNode:
    """Base class for logical plan nodes."""

    #: Output schema, set by the planner.
    schema: Tuple[Field, ...]
    #: Optimizer row estimate (None = unknown).
    est_rows: Optional[float]

    def __init__(self, schema: Sequence[Field]):
        self.schema = tuple(schema)
        self.est_rows = None

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """Return a copy of this node with the given children."""
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable operator label used by EXPLAIN."""
        return type(self).__name__

    def resolve(self, ref: ast.ColumnRef) -> int:
        """Resolve a column reference against this node's output schema."""
        return bind_column(self.schema, ref)


class Scan(PlanNode):
    """Read a base table from the catalog."""

    def __init__(self, table_name: str, binding: str, schema: Sequence[Field]):
        super().__init__(schema)
        self.table_name = table_name
        self.binding = binding

    def with_children(self, children):
        if children:
            raise PlanError("Scan takes no children")
        return self

    def label(self) -> str:
        return f"Scan({self.table_name} AS {self.binding})"


class CteScan(PlanNode):
    """Read a materialized common table expression."""

    def __init__(self, cte_name: str, binding: str, schema: Sequence[Field]):
        super().__init__(schema)
        self.cte_name = cte_name
        self.binding = binding

    def with_children(self, children):
        if children:
            raise PlanError("CteScan takes no children")
        return self

    def label(self) -> str:
        return f"CteScan({self.cte_name} AS {self.binding})"


@dataclass(frozen=True)
class ProjectItem:
    """One projected expression with its output name."""

    expr: ast.Expr
    name: str


class Project(PlanNode):
    """Evaluate expressions over the child's rows."""

    def __init__(
        self, child: PlanNode, items: Sequence[ProjectItem], schema: Sequence[Field]
    ):
        super().__init__(schema)
        self.child = child
        self.items = tuple(items)

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Project(child, self.items, self.schema)

    def label(self) -> str:
        rendered = ", ".join(i.name for i in self.items)
        return f"Project({rendered})"


class Expand(PlanNode):
    """A table UDF in a select list: one input row -> many output rows.

    The paper's Expand variant (section 5.3, Table 2): sibling select items
    are replicated along the UDF's row lineage.
    """

    def __init__(
        self,
        child: PlanNode,
        call: ast.FunctionCall,
        arg_exprs: Sequence[ast.Expr],
        const_args: Sequence[Any],
        out_names: Sequence[str],
        passthrough: Sequence[ProjectItem],
        schema: Sequence[Field],
        layout: Optional[Sequence[Tuple[str, int]]] = None,
    ):
        super().__init__(schema)
        self.child = child
        self.call = call
        self.arg_exprs = tuple(arg_exprs)
        self.const_args = tuple(const_args)
        self.out_names = tuple(out_names)
        self.passthrough = tuple(passthrough)
        # Layout maps each schema position to its source: ("expand", i)
        # for the i-th UDF output column, ("pass", i) for the i-th
        # passthrough item.  Defaults to contiguous expand outputs at the
        # position where the call appeared.
        if layout is not None:
            self.layout = tuple(layout)
        else:
            offset = self._find_expand_offset()
            entries: List[Tuple[str, int]] = []
            pass_index = 0
            for i in range(len(self.schema)):
                if offset <= i < offset + len(self.out_names):
                    entries.append(("expand", i - offset))
                else:
                    entries.append(("pass", pass_index))
                    pass_index += 1
            self.layout = tuple(entries)

    @property
    def expand_offset(self) -> int:
        for i, (source, index) in enumerate(self.layout):
            if source == "expand" and index == 0:
                return i
        raise PlanError("Expand layout lacks expand outputs")

    def _find_expand_offset(self) -> int:
        names = [f.name for f in self.schema]
        for i in range(len(names) - len(self.out_names) + 1):
            if tuple(names[i : i + len(self.out_names)]) == self.out_names:
                return i
        raise PlanError("Expand schema does not contain its output columns")

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Expand(
            child, self.call, self.arg_exprs, self.const_args,
            self.out_names, self.passthrough, self.schema, self.layout,
        )

    def label(self) -> str:
        return f"Expand({self.call.name})"


class Filter(PlanNode):
    """Keep rows satisfying a predicate."""

    def __init__(self, child: PlanNode, predicate: ast.Expr):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Filter(child, self.predicate)

    def label(self) -> str:
        from ..sql.printer import to_sql

        return f"Filter({to_sql(self.predicate)})"


@dataclass(frozen=True)
class AggCall:
    """One aggregate invocation inside an Aggregate node."""

    func_name: str
    args: Tuple[ast.Expr, ...]
    distinct: bool
    out_name: str
    is_udf: bool = False


class Aggregate(PlanNode):
    """Group rows and evaluate aggregates per group."""

    def __init__(
        self,
        child: PlanNode,
        group_items: Sequence[ProjectItem],
        agg_calls: Sequence[AggCall],
        schema: Sequence[Field],
    ):
        super().__init__(schema)
        self.child = child
        self.group_items = tuple(group_items)
        self.agg_calls = tuple(agg_calls)

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Aggregate(child, self.group_items, self.agg_calls, self.schema)

    def label(self) -> str:
        keys = ", ".join(i.name for i in self.group_items)
        aggs = ", ".join(f"{c.func_name}->{c.out_name}" for c in self.agg_calls)
        return f"Aggregate(keys=[{keys}], aggs=[{aggs}])"


class Join(PlanNode):
    """Join two inputs."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        kind: str,
        condition: Optional[ast.Expr],
        schema: Sequence[Field],
    ):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition

    @property
    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return Join(left, right, self.kind, self.condition, self.schema)

    def label(self) -> str:
        return f"Join({self.kind})"


@dataclass(frozen=True)
class SortKey:
    expr: ast.Expr
    ascending: bool = True


class Sort(PlanNode):
    """Order rows by one or more keys (blocking)."""

    def __init__(self, child: PlanNode, keys: Sequence[SortKey]):
        super().__init__(child.schema)
        self.child = child
        self.keys = tuple(keys)

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Sort(child, self.keys)

    def label(self) -> str:
        return f"Sort({len(self.keys)} keys)"


class Distinct(PlanNode):
    """Remove duplicate rows."""

    def __init__(self, child: PlanNode):
        super().__init__(child.schema)
        self.child = child

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Distinct(child)


class Limit(PlanNode):
    """Keep the first N rows (after an optional offset)."""

    def __init__(self, child: PlanNode, limit: Optional[int], offset: int = 0):
        super().__init__(child.schema)
        self.child = child
        self.limit = limit
        self.offset = offset

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Limit(child, self.limit, self.offset)

    def label(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class SetOperation(PlanNode):
    """UNION / UNION ALL / INTERSECT / EXCEPT."""

    def __init__(self, left: PlanNode, right: PlanNode, op: str):
        super().__init__(left.schema)
        self.left = left
        self.right = right
        self.op = op

    @property
    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return SetOperation(left, right, self.op)

    def label(self) -> str:
        return f"SetOperation({self.op})"


class TableFunctionScan(PlanNode):
    """A table UDF in the FROM clause, fed by an optional input subplan."""

    def __init__(
        self,
        udf_name: str,
        binding: str,
        input_plan: Optional[PlanNode],
        const_args: Sequence[Any],
        schema: Sequence[Field],
    ):
        super().__init__(schema)
        self.udf_name = udf_name
        self.binding = binding
        self.input_plan = input_plan
        self.const_args = tuple(const_args)

    @property
    def children(self):
        return (self.input_plan,) if self.input_plan is not None else ()

    def with_children(self, children):
        input_plan = children[0] if children else None
        return TableFunctionScan(
            self.udf_name, self.binding, input_plan, self.const_args, self.schema
        )

    def label(self) -> str:
        return f"TableFunctionScan({self.udf_name} AS {self.binding})"


class FusedFilter(PlanNode):
    """A QFusor-generated node: a fused table UDF evaluated in expand
    mode whose *lineage* filters the child's rows.

    Produced when a Filter's UDF-bearing predicate is offloaded into the
    UDF environment (paper section 5.3.2, filter case) but no projection
    consumes the fused pipeline's value outputs.
    """

    def __init__(
        self,
        child: PlanNode,
        udf_name: str,
        arg_exprs: Sequence[ast.Expr],
        const_args: Sequence[Any] = (),
    ):
        super().__init__(child.schema)
        self.child = child
        self.udf_name = udf_name
        self.arg_exprs = tuple(arg_exprs)
        self.const_args = tuple(const_args)

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return FusedFilter(child, self.udf_name, self.arg_exprs, self.const_args)

    def label(self) -> str:
        return f"FusedFilter({self.udf_name})"


class OneRow(PlanNode):
    """A single-row, zero-column input for FROM-less selects."""

    def __init__(self):
        super().__init__(())

    def with_children(self, children):
        return self

    def label(self) -> str:
        return "OneRow"


class Requalify(PlanNode):
    """Renames a subquery's output qualifiers to its FROM-clause alias."""

    def __init__(self, child: PlanNode, schema: Sequence[Field]):
        super().__init__(schema)
        self.child = child

    @property
    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Requalify(child, self.schema)

    def label(self) -> str:
        qualifier = self.schema[0].qualifier if self.schema else "?"
        return f"Subquery({qualifier})"


def walk_plan(node: PlanNode) -> Iterator[PlanNode]:
    """Yield ``node`` and all descendants, pre-order."""
    yield node
    for child in node.children:
        yield from walk_plan(child)
