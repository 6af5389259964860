"""Expression evaluation and type inference.

Two evaluation modes mirror the two executors:

* :func:`compile` — walks an expression once per plan operator and
  returns a kernel over whole columns: every node type runs on the typed
  buffers and null masks (object arrays for TEXT/JSON), there is no
  per-row interpreter behind it.  Scalar UDF calls take the *bulk* path
  through the registry wrapper (one boundary crossing per value, batched).
* :class:`RowEvaluator` — evaluates over one row tuple at a time (the
  SQLite-style model).  Scalar UDF calls cross the boundary per value per
  call, which is exactly the per-tuple FFI overhead the paper attributes
  to tuple-at-a-time engines.

SQL three-valued logic is implemented throughout: comparisons with NULL
yield NULL, AND/OR follow Kleene semantics, and predicates treat NULL as
not-satisfied.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError, PlanError
from ..sql import ast_nodes as ast
from ..storage.column import Column
from ..types import NUMPY_DTYPES, SqlType, common_type, is_numeric
from ..udf import boundary
from ..udf.definition import UdfKind
from . import keys
from .functions import BUILTIN_AGGREGATES, BUILTIN_SCALARS, like_to_regex
from .plan import Field, bind_column

__all__ = [
    "infer_type", "compile", "truth_mask",
    "VectorEvaluator", "RowEvaluator", "FunctionResolver",
]


class FunctionResolver:
    """Resolves function names to builtins or registered UDFs.

    The engine's :class:`~repro.engine.database.Database` provides one,
    backed by its :class:`~repro.udf.registry.UdfRegistry`.
    """

    def __init__(self, registry=None):
        self.registry = registry

    def builtin_scalar(self, name: str):
        return BUILTIN_SCALARS.get(name.lower())

    def builtin_aggregate(self, name: str):
        return BUILTIN_AGGREGATES.get(name.lower())

    def udf(self, name: str):
        if self.registry is None:
            return None
        return self.registry.lookup(name)

    def udf_kind(self, name: str) -> Optional[UdfKind]:
        registered = self.udf(name)
        return None if registered is None else registered.kind

    def is_aggregate_call(self, name: str) -> bool:
        if self.builtin_aggregate(name) is not None:
            return True
        return self.udf_kind(name) is UdfKind.AGGREGATE


# ----------------------------------------------------------------------
# Type inference
# ----------------------------------------------------------------------


def infer_type(
    expr: ast.Expr, fields: Sequence[Field], resolver: FunctionResolver
) -> Optional[SqlType]:
    """Infer the SQL type of ``expr`` over the given input schema."""
    if isinstance(expr, ast.Literal):
        return expr.sql_type
    if isinstance(expr, ast.PositionRef):
        return fields[expr.index].sql_type
    if isinstance(expr, ast.ColumnRef):
        for field in fields:
            if field.matches(expr):
                return field.sql_type
        raise PlanError(f"unknown column {expr.qualified!r} in type inference")
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "LIKE", "=", "!=", "<", "<=", ">", ">="):
            return SqlType.BOOL
        if expr.op == "||":
            return SqlType.TEXT
        left = infer_type(expr.left, fields, resolver)
        right = infer_type(expr.right, fields, resolver)
        if expr.op == "/":
            return SqlType.FLOAT
        return common_type(left, right) or SqlType.INT
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return SqlType.BOOL
        return infer_type(expr.operand, fields, resolver)
    if isinstance(expr, (ast.Between, ast.InList, ast.IsNull)):
        return SqlType.BOOL
    if isinstance(expr, ast.Cast):
        return expr.target
    if isinstance(expr, ast.CaseExpr):
        result: Optional[SqlType] = None
        for _, branch in expr.whens:
            result = common_type(result, infer_type(branch, fields, resolver))
        if expr.else_result is not None:
            result = common_type(result, infer_type(expr.else_result, fields, resolver))
        return result
    if isinstance(expr, ast.FunctionCall):
        builtin = (
            resolver.builtin_scalar(expr.name) or resolver.builtin_aggregate(expr.name)
        )
        if builtin is not None:
            arg_types = [infer_type(a, fields, resolver) for a in expr.args]
            return builtin.result_type(arg_types)
        registered = resolver.udf(expr.name)
        if registered is not None:
            return registered.definition.signature.return_types[0]
        raise PlanError(f"unknown function {expr.name!r}")
    raise PlanError(f"cannot infer type of {type(expr).__name__}")


# ----------------------------------------------------------------------
# Row-at-a-time evaluation
# ----------------------------------------------------------------------

_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}

_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _zero_safe(func: Callable) -> Callable:
    def call(a, b):
        try:
            return func(a, b)
        except ZeroDivisionError:
            return None

    return call


_SAFE_ARITH = {op: _zero_safe(func) for op, func in _ARITH.items()}


class RowEvaluator:
    """Evaluates expressions over single row tuples."""

    def __init__(self, fields: Sequence[Field], resolver: FunctionResolver):
        self.fields = tuple(fields)
        self.resolver = resolver
        self._positions: Dict[ast.ColumnRef, int] = {}

    def _index_of(self, ref: ast.ColumnRef) -> int:
        index = self._positions.get(ref)
        if index is None:  # bound once per evaluator, not once per row
            index = self._positions[ref] = bind_column(self.fields, ref)
        return index

    def evaluate(self, expr: ast.Expr, row: Sequence[Any]) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.PositionRef):
            return row[expr.index]
        if isinstance(expr, ast.ColumnRef):
            return row[self._index_of(expr)]
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, row)
        if isinstance(expr, ast.UnaryOp):
            value = self.evaluate(expr.operand, row)
            if expr.op == "NOT":
                return None if value is None else (not value)
            return None if value is None else -value
        if isinstance(expr, ast.IsNull):
            value = self.evaluate(expr.expr, row)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, ast.Between):
            value = self.evaluate(expr.expr, row)
            low = self.evaluate(expr.low, row)
            high = self.evaluate(expr.high, row)
            if value is None or low is None or high is None:
                return None
            result = low <= value <= high
            return (not result) if expr.negated else result
        if isinstance(expr, ast.InList):
            return self._in_list(expr, row)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr, row)
        if isinstance(expr, ast.Cast):
            return _cast_value(self.evaluate(expr.expr, row), expr.target)
        if isinstance(expr, ast.FunctionCall):
            return self._call(expr, row)
        raise ExecutionError(f"cannot evaluate {type(expr).__name__} per row")

    def _binary(self, expr: ast.BinaryOp, row: Sequence[Any]) -> Any:
        op = expr.op
        if op == "AND":
            left = self.evaluate(expr.left, row)
            if left is False:
                return False
            right = self.evaluate(expr.right, row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.evaluate(expr.left, row)
            if left is True:
                return True
            right = self.evaluate(expr.right, row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        if left is None or right is None:
            return None
        if op in _COMPARE:
            return _COMPARE[op](left, right)
        if op in _SAFE_ARITH:
            return _SAFE_ARITH[op](left, right)
        if op == "||":
            return str(left) + str(right)
        if op == "LIKE":
            return like_to_regex(right).match(left) is not None
        raise ExecutionError(f"unknown operator {op!r}")

    def _in_list(self, expr: ast.InList, row: Sequence[Any]) -> Any:
        value = self.evaluate(expr.expr, row)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = self.evaluate(item, row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _case(self, expr: ast.CaseExpr, row: Sequence[Any]) -> Any:
        if expr.operand is not None:
            operand = self.evaluate(expr.operand, row)
            for cond, result in expr.whens:
                candidate = self.evaluate(cond, row)
                if candidate is not None and candidate == operand:
                    return self.evaluate(result, row)
        else:
            for cond, result in expr.whens:
                if self.evaluate(cond, row) is True:
                    return self.evaluate(result, row)
        if expr.else_result is not None:
            return self.evaluate(expr.else_result, row)
        return None

    def _call(self, expr: ast.FunctionCall, row: Sequence[Any]) -> Any:
        builtin = self.resolver.builtin_scalar(expr.name)
        args = [self.evaluate(a, row) for a in expr.args]
        if builtin is not None:
            return builtin(*args)
        registered = self.resolver.udf(expr.name)
        if registered is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        if registered.kind is not UdfKind.SCALAR:
            raise ExecutionError(
                f"{expr.name!r} is a {registered.kind} UDF; only scalar UDFs "
                f"may appear in row expressions"
            )
        # Tuple-at-a-time UDF invocation: one boundary round trip per call.
        definition = registered.definition
        if definition.strict and any(a is None for a in args):
            return None
        converted = [
            boundary.c_to_python(
                boundary.engine_to_c(value, sql_type), sql_type
            )
            for value, sql_type in zip(args, definition.signature.arg_types)
        ]
        out_type = definition.signature.return_types[0]
        result = registered.call_scalar_value(converted)
        return boundary.c_to_engine(
            boundary.python_to_c(result, out_type), out_type
        )


# ----------------------------------------------------------------------
# Compile-once vector kernels
# ----------------------------------------------------------------------

Kernel = Callable[[Sequence[Column], int], Column]


def compile(  # noqa: A001 - the engine's compile step, not the builtin
    expr: ast.Expr, fields: Sequence[Field], resolver: FunctionResolver
) -> Kernel:
    """Walk ``expr`` once and return ``kernel(columns, size) -> Column``.

    ``columns`` must align positionally with ``fields``.  Column refs are
    bound to positions, result types inferred, builtins resolved and
    literal LIKE patterns compiled here; the kernel only runs
    whole-column operations over typed buffers and null masks.  Kernels
    hold no mutable state, so morsel threads share one.  Scalar UDFs are
    looked up by name per batch (re-registration stays visible).
    """
    fields = tuple(fields)

    def build(node: ast.Expr) -> Kernel:
        return compile(node, fields, resolver)

    if isinstance(expr, (ast.PositionRef, ast.ColumnRef)):
        index = (
            expr.index if isinstance(expr, ast.PositionRef)
            else bind_column(fields, expr)
        )
        return lambda columns, size: columns[index]
    if isinstance(expr, ast.Literal):
        value, sql_type = expr.value, expr.sql_type or SqlType.INT
        return lambda columns, size: _broadcast(value, sql_type, size)
    if isinstance(expr, ast.BinaryOp):
        apply = _binary_kernel(expr.op, expr.left, expr.right)
        left, right = build(expr.left), build(expr.right)
        return lambda columns, size: apply(left(columns, size), right(columns, size))
    if isinstance(expr, ast.FunctionCall):
        return _compile_call(expr, [build(a) for a in expr.args], fields, resolver)
    if isinstance(expr, ast.CaseExpr):
        return _compile_case(expr, fields, resolver)
    if isinstance(expr, ast.IsNull):
        operand, negated = build(expr.expr), expr.negated

        def is_null(columns, size):
            null = operand(columns, size).null_mask()
            return Column.from_numpy("expr", SqlType.BOOL, ~null if negated else null)

        return is_null
    if isinstance(expr, ast.UnaryOp):
        operand, negate = build(expr.operand), expr.op != "NOT"

        def unary(columns, size):
            col = operand(columns, size)
            out_type = col.sql_type if negate else SqlType.BOOL
            if negate and col.sql_type in (SqlType.INT, SqlType.FLOAT):
                data = -col.numpy()
            elif not negate and is_numeric(col.sql_type):
                data = col.numpy() == 0
            else:
                func = operator.neg if negate else operator.not_
                return _map_rows(func, out_type, [col], size)
            return Column.from_numpy("expr", out_type, data, col.null_mask())

        return unary
    if isinstance(expr, ast.Between):
        parts = [build(expr.expr), build(expr.low), build(expr.high)]
        negated = expr.negated

        def between(columns, size):
            value, low, high = (part(columns, size) for part in parts)
            if not _all_numeric(value, low, high):
                return _map_rows(
                    lambda v, lo, hi: (lo <= v <= hi) != negated,
                    SqlType.BOOL, [value, low, high], size,
                )
            data = (low.numpy() <= value.numpy()) & (value.numpy() <= high.numpy())
            null = value.null_mask() | low.null_mask() | high.null_mask()
            return Column.from_numpy("expr", SqlType.BOOL, data != negated, null)

        return between
    if isinstance(expr, ast.InList):
        operands = [build(expr.expr)] + [build(item) for item in expr.items]
        negated = expr.negated

        def in_list(columns, size):
            value, *items = (operand(columns, size) for operand in operands)
            if not _all_numeric(value, *items):
                return _map_rows(
                    lambda v, *members: _member(v, members, negated),
                    SqlType.BOOL, [value] + items, size, strict=False,
                )
            hit = np.zeros(size, dtype=bool)
            saw_null = np.zeros(size, dtype=bool)
            for item in items:  # a NULL member never matches but is remembered
                hit |= (item.numpy() == value.numpy()) & ~item.null_mask()
                saw_null |= item.null_mask()
            null = value.null_mask() | (saw_null & ~hit)
            return Column.from_numpy("expr", SqlType.BOOL, hit != negated, null)

        return in_list
    if isinstance(expr, ast.Cast):
        operand, target = build(expr.expr), expr.target

        def cast(columns, size):
            col = operand(columns, size)
            source = col.sql_type
            if source is target:
                return col
            if is_numeric(source) and is_numeric(target) and not (
                source is SqlType.FLOAT and target is SqlType.INT
            ):  # FLOAT -> INT truncates and fails on NaN: per value below
                data = col.numpy() != 0 if target is SqlType.BOOL else col.numpy()
                return Column.from_numpy("expr", target, data, col.null_mask())
            out = [_cast_value(v, target) for v in col.to_list()]
            return Column("expr", target, out, validate=False)

        return cast
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def truth_mask(col: Column) -> np.ndarray:
    """Rows where a predicate column is satisfied (NULL -> False)."""
    if is_numeric(col.sql_type):
        return (col.numpy() != 0) & ~col.null_mask()
    return np.array([bool(v) for v in col.numpy()], dtype=bool)


class VectorEvaluator:
    """One-shot :func:`compile`-and-run for operators that evaluate each
    expression once per execution.  ``columns`` must align positionally
    with the ``fields`` schema given at construction."""

    def __init__(self, fields: Sequence[Field], resolver: FunctionResolver):
        self.fields = tuple(fields)
        self.resolver = resolver

    def evaluate(
        self, expr: ast.Expr, columns: Sequence[Column], size: int, name: str = "expr"
    ) -> Column:
        """Evaluate ``expr`` over ``columns`` into a column named ``name``."""
        return compile(expr, self.fields, self.resolver)(columns, size).renamed(name)

    def predicate_mask(
        self, expr: ast.Expr, columns: Sequence[Column], size: int
    ) -> np.ndarray:
        """Evaluate a predicate into a boolean mask (NULL -> False)."""
        return truth_mask(self.evaluate(expr, columns, size))


def _broadcast(value: Any, sql_type: SqlType, size: int) -> Column:
    """A literal as a constant column (no per-row Python work)."""
    if is_numeric(sql_type):
        data = np.full(size, 0 if value is None else value)
        return Column.from_numpy("lit", sql_type, data, np.full(size, value is None))
    return Column.from_numpy("lit", sql_type, np.full(size, value, dtype=object))


_OBJECT_TYPES = (SqlType.TEXT, SqlType.JSON)


def _all_numeric(*cols: Column) -> bool:
    return all(is_numeric(col.sql_type) for col in cols)


def _map_rows(
    func: Callable, sql_type: SqlType, cols: Sequence[Column], size: int,
    strict: bool = True,
) -> Column:
    """``func`` over the rows of ``cols`` as one comprehension — the
    object path for TEXT/JSON operands and builtins.  A strict function
    yields NULL on any NULL argument without being called."""
    lists = [col.to_list() for col in cols]
    if not lists:
        out = [func() for _ in range(size)]
    elif not strict:
        out = [func(*row) for row in zip(*lists)]
    elif len(lists) == 1:
        out = [None if a is None else func(a) for a in lists[0]]
    else:
        out = [None if None in row else func(*row) for row in zip(*lists)]
    return Column("expr", sql_type, out, validate=False)


def _map_strict(
    func: Callable, sql_type: SqlType, cols: Sequence[Column], size: int,
    varying: Optional[int],
) -> Column:
    """A strict ``func`` over the rows of ``cols``.  ``varying`` is the
    position of the only operand that is not a literal, when exactly one
    is not; if that operand has a dictionary, ``func`` runs once per
    dictionary value and the results are gathered back by code, else
    this is :func:`_map_rows`.

    The values run in first-seen order, so a raising ``func`` raises on
    the same value as the row loop, and a dictionary holds only values
    its rows hold (see :meth:`Column.dictionary`), so it raises only if
    the row loop would.  A TEXT/JSON result carries its own deduplicated
    dictionary into the next operator."""
    found = None
    if varying is not None and size and cols[varying].sql_type in _OBJECT_TYPES:
        found = cols[varying].dictionary()
    if found is not None:
        args = [other[0] for other in cols]  # the other operands are literals
        if any(arg is None for i, arg in enumerate(args) if i != varying):
            found = None  # a NULL literal: the row loop's all-NULL answer
    if found is None:
        return _map_rows(func, sql_type, cols, size)
    codes, values = found
    out = []
    for value in values.tolist():
        if value is None:
            out.append(None)
            continue
        args[varying] = value
        out.append(func(*args))
    if sql_type not in _OBJECT_TYPES:
        return Column("expr", sql_type, out, validate=False).take(codes)
    results = np.empty(len(out), dtype=object)
    results[:] = out
    out_codes, first_rows = keys.encode_objects(results)
    return Column.from_dictionary(
        "expr", sql_type, out_codes[codes], results[first_rows]
    )


def _varying(operands: Sequence[ast.Expr]) -> Optional[int]:
    """Position of the only operand that is not a literal, if one is."""
    slots = [i for i, e in enumerate(operands) if not isinstance(e, ast.Literal)]
    return slots[0] if len(slots) == 1 else None


def _member(value: Any, members: Sequence[Any], negated: bool) -> Any:
    """``value [NOT] IN members`` for one row (three-valued)."""
    if value is None:
        return None
    if value in members:
        return not negated
    return None if None in members else negated


def _binary_kernel(
    op: str, left: ast.Expr, right: ast.Expr
) -> Callable[[Column, Column], Column]:
    """The whole-column implementation of binary operator ``op``."""
    if op in ("AND", "OR"):
        return lambda a, b: _logical(op, a, b)
    varying = _varying((left, right))
    if op == "||":  # "{}{}".format(x, y) is str(x) + str(y) without a Python frame
        return lambda a, b: _map_strict(
            "{}{}".format, SqlType.TEXT, [a, b], len(a), varying
        )
    if op == "LIKE":
        if isinstance(right, ast.Literal) and isinstance(right.value, str):
            match = like_to_regex(right.value).match  # compiled once
            only = 0 if varying == 0 else None
            return lambda a, b: _map_strict(
                lambda v: match(v) is not None, SqlType.BOOL, [a], len(a), only
            )
        return lambda a, b: _map_strict(
            lambda v, p: like_to_regex(p).match(v) is not None,
            SqlType.BOOL, [a, b], len(a), varying,
        )
    if op not in _ARITH and op not in _COMPARE:
        raise ExecutionError(f"unknown operator {op!r}")

    def apply(a: Column, b: Column) -> Column:
        if _all_numeric(a, b):
            return _numeric_binary(op, a, b)
        if op in _COMPARE:
            return _map_strict(
                _COMPARE[op], SqlType.BOOL, [a, b], len(a), varying
            )
        sql_type = SqlType.FLOAT if op == "/" else (
            a.sql_type if a.sql_type is not SqlType.BOOL else SqlType.INT
        )
        return _map_rows(_SAFE_ARITH[op], sql_type, [a, b], len(a))

    return apply


def _numeric_binary(op: str, left: Column, right: Column) -> Column:
    a = left.numpy()
    b = right.numpy()
    null = left.null_mask() | right.null_mask()
    if op in _COMPARE:
        with np.errstate(invalid="ignore"):
            data = _COMPARE[op](a, b)
        return Column.from_numpy("expr", SqlType.BOOL, data, null)
    if op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            data = np.true_divide(a, b)
        null = null | (b == 0)
        return Column.from_numpy("expr", SqlType.FLOAT, np.where(null, 0.0, data), null)
    out_type = (
        SqlType.FLOAT if SqlType.FLOAT in (left.sql_type, right.sql_type)
        else SqlType.INT
    )
    if op == "%":
        zero = b == 0
        data = np.mod(a, np.where(zero, 1, b))
        return Column.from_numpy("expr", out_type, data, null | zero)
    return Column.from_numpy("expr", out_type, _ARITH[op](a, b), null)


def _logical(op: str, left: Column, right: Column) -> Column:
    a_null = left.null_mask()
    b_null = right.null_mask()
    a_val = np.asarray(left.numpy(), dtype=bool) & ~a_null
    b_val = np.asarray(right.numpy(), dtype=bool) & ~b_null
    if op == "AND":
        data = a_val & b_val
        # NULL unless the other side is definitively False
        null = (a_null & ~(~b_null & ~b_val)) | (b_null & ~(~a_null & ~a_val))
    else:
        data = a_val | b_val
        null = (a_null & ~b_val) | (b_null & ~a_val)
    return Column.from_numpy("expr", SqlType.BOOL, data, null)


def _compile_call(
    expr: ast.FunctionCall, args: List[Kernel], fields, resolver: FunctionResolver
) -> Kernel:
    builtin = resolver.builtin_scalar(expr.name)
    if builtin is not None:
        func, strict = builtin.func, builtin.strict
        sql_type = infer_type(expr, fields, resolver)
        if not strict:
            return lambda columns, size: _map_rows(
                func, sql_type, [arg(columns, size) for arg in args], size, False
            )
        varying = _varying(expr.args)
        return lambda columns, size: _map_strict(
            func, sql_type, [arg(columns, size) for arg in args], size, varying
        )
    name = expr.name

    def call_udf(columns, size):
        registered = resolver.udf(name)
        if registered is None:
            raise ExecutionError(f"unknown function {name!r}")
        if registered.kind is not UdfKind.SCALAR:
            raise ExecutionError(
                f"{name!r} is a {registered.kind} UDF and cannot be "
                f"evaluated as a scalar expression"
            )
        return registered.call_scalar([arg(columns, size) for arg in args], size)

    return call_udf


def _compile_case(
    expr: ast.CaseExpr, fields: Sequence[Field], resolver: FunctionResolver
) -> Kernel:
    """CASE as mask-select over a *frame*: eager calls, lazy branches.

    The frame holds the expression's column refs and function calls (and
    a simple CASE's operand), evaluated over the whole batch — a UDF
    inside a CASE keeps its bulk invocation and row-error policy.
    Conditions and results are compiled against the frame and run only
    over the rows that reach them, as a per-row evaluation would: a
    branch no row takes is never evaluated and cannot raise.
    """
    out_type = infer_type(expr, fields, resolver) or SqlType.TEXT
    leaves: List[Kernel] = []
    frame_fields: List[Field] = []
    ref_slots: Dict[ast.Expr, ast.PositionRef] = {}

    def slot(node: ast.Expr) -> ast.PositionRef:
        leaves.append(compile(node, fields, resolver))
        sql_type = infer_type(node, fields, resolver) or SqlType.TEXT
        frame_fields.append(Field(f"__{len(frame_fields)}", sql_type))
        return ast.PositionRef(len(leaves) - 1)

    def bind(node: ast.Expr) -> ast.Expr:
        if isinstance(node, (ast.ColumnRef, ast.PositionRef)):
            if node not in ref_slots:
                ref_slots[node] = slot(node)
            return ref_slots[node]
        if isinstance(node, ast.FunctionCall):
            return slot(node)  # one invocation per call site
        return ast.rewrite_children(node, bind)

    whens = [(bind(cond), bind(result)) for cond, result in expr.whens]
    if expr.operand is not None:  # simple CASE: the operand is evaluated once
        operand = slot(expr.operand)
        whens = [(ast.BinaryOp("=", operand, cond), result) for cond, result in whens]
    if expr.else_result is not None:
        whens.append((ast.Literal(True), bind(expr.else_result)))
    arms = [
        (compile(cond, frame_fields, resolver), compile(result, frame_fields, resolver))
        for cond, result in whens
    ]
    numeric = is_numeric(out_type)

    def case(columns, size):
        frame = [leaf(columns, size) for leaf in leaves]
        rows = np.arange(size)  # the rows no earlier branch has taken
        data = np.full(size, 0 if numeric else None, dtype=NUMPY_DTYPES[out_type])
        null = np.ones(size, dtype=bool)
        for cond, result in arms:
            decided = cond(frame, len(rows))
            if decided.sql_type is not SqlType.BOOL:
                continue  # a branch is taken only where its condition IS TRUE
            taken = decided.numpy() & ~decided.null_mask()
            if not taken.any():
                continue
            chosen = rows[taken]
            col = result([leaf.filter(taken) for leaf in frame], len(chosen))
            if numeric and not is_numeric(col.sql_type):  # an untyped NULL branch
                col = Column("expr", out_type, col.to_list(), validate=False)
            if numeric:
                data[chosen] = col.numpy()
                null[chosen] = col.null_mask()
            else:
                data[chosen] = col.to_list()
            rest = ~taken
            rows = rows[rest]
            if not len(rows):
                break
            frame = [leaf.filter(rest) for leaf in frame]
        return Column.from_numpy("expr", out_type, data, null)

    return case


def _cast_value(value: Any, target: SqlType) -> Any:
    if value is None:
        return None
    try:
        if target is SqlType.INT:
            return int(float(value)) if isinstance(value, str) else int(value)
        if target is SqlType.FLOAT:
            return float(value)
        if target is SqlType.TEXT:
            return str(value)
        if target is SqlType.BOOL:
            return bool(value)
    except (TypeError, ValueError):
        return None
    return value
