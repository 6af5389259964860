"""Froid-style UDF-to-SQL translation (ROADMAP item 3).

"Optimization of Imperative Programs in a Relational Database"
(Ramachandra et al., PAPERS.md) compiles simple imperative functions into
relational expressions the engine optimizes natively.  This module does
the same for Python scalar UDFs: the function's AST is compiled into a
:mod:`repro.sql.ast_nodes` expression tree — straight-line arithmetic,
comparisons, boolean logic, ``if``/``elif``/``else`` and ternaries as
``CASE`` trees, string ops (``upper``/``strip``/concat/slicing →
``substr``), ``None`` handling (``IS NULL`` / ``COALESCE``), and calls to
other translatable UDFs inlined under a depth bound.  Everything else —
loops, exceptions, closures, volatile or unannotated UDFs — yields a
typed :class:`Untranslatable` result with a precise ``reason``, and the
caller falls back to fusion/JIT.

Correctness over coverage.  Python and SQL disagree on several edges, so
the supported subset is drawn strictly inside the intersection:

* ``a / b`` translates only for a nonzero *literal* divisor (Python
  raises ``ZeroDivisionError`` where SQL yields NULL) and is rendered
  with a float divisor so sqlite's truncating integer division cannot
  diverge from Python's true division.
* ``a % b`` requires integer operands and a nonzero literal divisor;
  dialects with C-style sign semantics (sqlite: sign of the dividend)
  render the Python-semantics emulation ``((a % b) + b) % b``.
* ``//`` (floor toward −inf, int result), ``str * int`` repetition, and
  string indexing (``IndexError``) are rejected outright.
* Strict-UDF NULL semantics (NULL argument → NULL without invocation)
  are preserved by a ``CASE WHEN args NOT NULL THEN body END`` guard,
  elided when the body provably NULL-propagates through every argument.
* Truthiness (``if s:``) lowers by static type (``<> 0`` / ``<> ''``),
  wrapped in ``COALESCE(…, FALSE)`` when the value may be NULL so
  ``not`` keeps Python's ``None``-is-falsy behaviour.

Every accepted translation is additionally *self-checked* at translate
time: the rendered expression is evaluated by the neutral
:class:`~repro.engine.expressions.RowEvaluator` over a deterministic
probe battery (negatives, zero, empty and non-ASCII strings, NULLs) and
compared against the Python function under strict semantics.  A mismatch
rejects the translation — a translator bug degrades to fusion, never to
wrong answers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import ast as pyast

from ..engine.expressions import FunctionResolver, RowEvaluator
from ..engine.plan import Field
from ..types import SqlType, common_type
from ..errors import TypeMismatchError
from ..udf.definition import UdfDefinition, UdfKind
from . import ast_nodes as ast

__all__ = [
    "Untranslatable", "TranslatedUdf", "TranslateDialect", "TranslateEvent",
    "TranslationResult", "DIALECT_PROFILES", "UdfTranslator",
    "translate_udf", "self_check",
]

#: Hard cap on translated-expression size (nodes).  Branch continuations
#: are duplicated into both CASE arms, so pathological if-chains could
#: otherwise explode; real translatable UDFs sit far below this.
MAX_EXPR_NODES = 400


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Untranslatable:
    """Typed rejection: why a UDF cannot be compiled to SQL."""

    reason: str
    udf: str = ""

    def __bool__(self) -> bool:  # translations are truthy, rejections not
        return False


@dataclass
class TranslatedUdf:
    """A scalar UDF compiled to a SQL expression template.

    ``expr`` is the guarded, return-type-coerced expression over
    :class:`~repro.sql.ast_nodes.ColumnRef` leaves named after the
    function's parameters; substituting call-site argument expressions
    for those leaves yields the inline replacement for a call.
    ``body`` is the unguarded body (used when inlining into another
    translated UDF, where the caller's guard already covers NULLs).
    """

    name: str
    version: Optional[int]
    params: Tuple[str, ...]
    param_types: Tuple[SqlType, ...]
    expr: ast.Expr
    body: ast.Expr
    body_type: Optional[SqlType]
    dialect: str
    #: Inlined callees and the registry versions they were inlined at;
    #: a re-registration of any dependency invalidates this translation.
    deps: Dict[str, Optional[int]] = field(default_factory=dict)
    guarded: bool = True
    self_checked: bool = False

    def substitute(self, args: Sequence[ast.Expr]) -> ast.Expr:
        """The guarded expression with arguments spliced for parameters."""
        mapping = dict(zip(self.params, args))
        return _substitute(self.expr, mapping)


@dataclass(frozen=True)
class TranslateEvent:
    """One translation decision, surfaced on the QFusor report."""

    udfs: Tuple[str, ...]
    outcome: str  # "hit" | "unsupported" | "deopt"
    reason: str = ""


@dataclass
class TranslationResult:
    """Outcome of translating one whole statement.

    ``statement`` is the rewritten statement when *every* UDF reference
    translated, else None; ``failures`` carries the per-UDF reasons.
    """

    statement: Optional[ast.Statement] = None
    translated: Dict[str, TranslatedUdf] = field(default_factory=dict)
    failures: Dict[str, Untranslatable] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Dialect capability profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TranslateDialect:
    """What one engine family's native expressions can match exactly.

    ``python`` covers the mini-engine family, whose builtins *are* the
    Python string/maths functions; ``sqlite`` is stricter because
    sqlite's UPPER/LOWER fold ASCII only and TRIM strips spaces only,
    and its ``%`` takes the dividend's sign (C semantics).
    """

    name: str
    #: ``.upper()`` may translate (engine upper == Python str.upper).
    upper_ok: bool = True
    #: ``.lower()`` may translate (needs a native Python-semantics lower).
    lower_ok: bool = False
    #: ``.strip()/.lstrip()/.rstrip()`` may translate (engine trim strips
    #: all Python whitespace, not just spaces).
    trim_ok: bool = True
    #: Render ``a % b`` as ``((a % b) + b) % b`` to recover Python's
    #: sign-of-divisor semantics on engines with C-style ``%``.
    c_style_mod: bool = False


DIALECT_PROFILES: Dict[str, TranslateDialect] = {
    # The mini-engine family: builtins are the Python functions, `%` is
    # numpy/Python mod (sign of the divisor), `/` is true division.
    "python": TranslateDialect("python", upper_ok=True, lower_ok=False,
                               trim_ok=True, c_style_mod=False),
    # stdlib sqlite3: ASCII-only case folding, space-only TRIM, C mod.
    "sqlite": TranslateDialect("sqlite", upper_ok=False, lower_ok=False,
                               trim_ok=False, c_style_mod=True),
}


# ----------------------------------------------------------------------
# Internal machinery
# ----------------------------------------------------------------------


class _Reject(Exception):
    """Internal control flow: a construct outside the supported subset."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class _T:
    """A translated expression with its static type and nullability."""

    node: ast.Expr
    type: Optional[SqlType]
    nullable: bool = False


_NUMERIC = (SqlType.INT, SqlType.FLOAT, SqlType.BOOL)

_CMP_OPS = {
    pyast.Eq: "=", pyast.NotEq: "!=", pyast.Lt: "<", pyast.LtE: "<=",
    pyast.Gt: ">", pyast.GtE: ">=",
}

_TRIM_METHODS = {"strip": "trim", "lstrip": "ltrim", "rstrip": "rtrim"}


def _substitute(expr: ast.Expr, mapping: Dict[str, ast.Expr]) -> ast.Expr:
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        replacement = mapping.get(expr.name)
        if replacement is not None:
            return replacement
    return ast.rewrite_children(expr, lambda e: _substitute(e, mapping))


def _expr_size(expr: ast.Expr) -> int:
    return sum(1 for _ in ast.walk_expr(expr))


def _propagating_params(expr: ast.Expr) -> set:
    """Parameters ``expr`` is provably NULL for when they are NULL.

    Computed over strict operators only: arithmetic, comparison, ``||``,
    unary ops, CAST, and strict builtin scalars all yield NULL when any
    input is NULL on every supported engine.  CASE, IS NULL, and
    COALESCE break the chain (empty set).
    """
    from ..engine.functions import BUILTIN_SCALARS

    if isinstance(expr, ast.ColumnRef):
        return {expr.name}
    if isinstance(expr, ast.Literal):
        return set()
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            return set()  # three-valued logic is not strict
        return _propagating_params(expr.left) | _propagating_params(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _propagating_params(expr.operand)
    if isinstance(expr, ast.Cast):
        return _propagating_params(expr.expr)
    if isinstance(expr, ast.FunctionCall):
        builtin = BUILTIN_SCALARS.get(expr.name.lower())
        if builtin is None or not builtin.strict:
            return set()
        out: set = set()
        for arg in expr.args:
            out |= _propagating_params(arg)
        return out
    return set()


def _referenced_params(expr: ast.Expr) -> set:
    return {
        node.name for node in ast.walk_expr(expr)
        if isinstance(node, ast.ColumnRef)
    }


class _BodyTranslator:
    """Compiles one function body into a SQL expression template."""

    def __init__(
        self,
        definition: UdfDefinition,
        dialect: TranslateDialect,
        registry: Any,
        depth: int,
        max_depth: int,
    ):
        self.definition = definition
        self.dialect = dialect
        self.registry = registry
        self.depth = depth
        self.max_depth = max_depth
        self.deps: Dict[str, Optional[int]] = {}

    # -- entry ---------------------------------------------------------

    def run(self) -> _T:
        from ..jit.inliner import function_ast

        fdef = function_ast(self.definition.func)
        if fdef is None:
            raise _Reject("source unavailable or not a plain function")
        args = fdef.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.defaults:
            raise _Reject("*args/**kwargs/keyword-only/default parameters")
        params = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if len(params) != self.definition.arity:
            raise _Reject("parameter list does not match registered arity")
        env: Dict[str, _T] = {}
        for name, sql_type in zip(params, self.definition.signature.arg_types):
            if sql_type is SqlType.JSON:
                raise _Reject("JSON-typed argument")
            # Strict semantics: the body never observes a NULL argument.
            env[name] = _T(ast.ColumnRef(name), sql_type, nullable=False)
        self.params = tuple(params)
        body = [s for s in fdef.body if not self._is_docstring(s)]
        result = self._stmts(body, env)
        if _expr_size(result.node) > MAX_EXPR_NODES:
            raise _Reject("translated expression too large")
        return result

    @staticmethod
    def _is_docstring(stmt: pyast.stmt) -> bool:
        return (
            isinstance(stmt, pyast.Expr)
            and isinstance(stmt.value, pyast.Constant)
            and isinstance(stmt.value.value, str)
        )

    # -- statements (continuation style) -------------------------------

    def _stmts(self, stmts: List[pyast.stmt], env: Dict[str, _T]) -> _T:
        """The value returned by executing ``stmts`` from ``env``.

        ``if`` branches are compiled by pushing the *continuation* (the
        statements after the ``if``) into both arms, so assignments made
        inside a branch flow into the code after it exactly as in
        Python; a read of a variable bound in only one branch rejects on
        the unbound path, mirroring ``UnboundLocalError``.
        """
        if not stmts:
            return _T(ast.Literal(None), None, nullable=True)
        st, rest = stmts[0], stmts[1:]
        if isinstance(st, pyast.Return):
            if st.value is None:
                return _T(ast.Literal(None), None, nullable=True)
            return self._value(st.value, env)
        if isinstance(st, pyast.Pass):
            return self._stmts(rest, env)
        if isinstance(st, pyast.Assign):
            if len(st.targets) != 1 or not isinstance(st.targets[0], pyast.Name):
                raise _Reject("only single-name assignment targets")
            value = self._value(st.value, env)
            return self._stmts(rest, {**env, st.targets[0].id: value})
        if isinstance(st, pyast.AnnAssign):
            if not isinstance(st.target, pyast.Name) or st.value is None:
                raise _Reject("annotated assignment without a value")
            value = self._value(st.value, env)
            return self._stmts(rest, {**env, st.target.id: value})
        if isinstance(st, pyast.AugAssign):
            if not isinstance(st.target, pyast.Name):
                raise _Reject("augmented assignment to a non-name")
            synthetic = pyast.BinOp(
                left=pyast.Name(id=st.target.id, ctx=pyast.Load()),
                op=st.op, right=st.value,
            )
            value = self._binop(synthetic, env)
            return self._stmts(rest, {**env, st.target.id: value})
        if isinstance(st, pyast.If):
            cond = self._condition(st.test, env)
            then_t = self._stmts(list(st.body) + rest, dict(env))
            else_t = self._stmts(list(st.orelse) + rest, dict(env))
            return self._merge(cond, then_t, else_t)
        if isinstance(st, (pyast.For, pyast.While)):
            raise _Reject("loops are not translatable")
        if isinstance(st, pyast.Try):
            raise _Reject("exception handling is not translatable")
        if isinstance(st, (pyast.FunctionDef, pyast.Lambda, pyast.ClassDef)):
            raise _Reject("nested function/class definitions")
        if isinstance(st, (pyast.Global, pyast.Nonlocal)):
            raise _Reject("global/nonlocal state")
        raise _Reject(f"unsupported statement {type(st).__name__}")

    def _merge(self, cond: ast.Expr, then_t: _T, else_t: _T) -> _T:
        try:
            merged = common_type(then_t.type, else_t.type)
        except TypeMismatchError:
            raise _Reject("branches produce incompatible types")
        node = ast.CaseExpr(
            whens=((cond, then_t.node),), else_result=else_t.node
        )
        return _T(node, merged, then_t.nullable or else_t.nullable)

    # -- conditions (boolean context) ----------------------------------

    def _condition(self, node: pyast.expr, env: Dict[str, _T]) -> ast.Expr:
        """A non-NULL BOOL expression matching Python truthiness."""
        if isinstance(node, pyast.BoolOp):
            op = "AND" if isinstance(node.op, pyast.And) else "OR"
            parts = [self._condition(v, env) for v in node.values]
            out = parts[0]
            for part in parts[1:]:
                out = ast.BinaryOp(op, out, part)
            return out
        if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.Not):
            return ast.UnaryOp("NOT", self._condition(node.operand, env))
        if isinstance(node, pyast.Compare):
            return self._compare(node, env).node
        return self._truthy(self._value(node, env))

    def _truthy(self, value: _T) -> ast.Expr:
        if value.type is None:
            return ast.Literal(False)  # a bare None is always falsy
        if value.type is SqlType.BOOL:
            test: ast.Expr = value.node
        elif value.type in (SqlType.INT, SqlType.FLOAT):
            test = ast.BinaryOp("!=", value.node, ast.Literal(0))
        elif value.type is SqlType.TEXT:
            test = ast.BinaryOp("!=", value.node, ast.Literal(""))
        else:
            raise _Reject(f"truthiness of {value.type} values")
        if value.nullable:
            # Python: None is falsy.  SQL: NULL <> 0 is NULL, which CASE
            # treats as false — but NOT(NULL) is NULL too, so `not x`
            # would diverge without pinning NULL to FALSE here.
            test = ast.FunctionCall("coalesce", (test, ast.Literal(False)))
        return test

    # -- expressions (value context) -----------------------------------

    def _value(self, node: pyast.expr, env: Dict[str, _T]) -> _T:
        if isinstance(node, pyast.Constant):
            return self._constant(node.value)
        if isinstance(node, pyast.Name):
            if node.id in env:
                return env[node.id]
            raise _Reject(f"name {node.id!r} is unbound on some path")
        if isinstance(node, pyast.BinOp):
            return self._binop(node, env)
        if isinstance(node, pyast.UnaryOp):
            if isinstance(node.op, pyast.Not):
                return _T(self._condition(node, env), SqlType.BOOL)
            if isinstance(node.op, pyast.USub):
                operand = self._numeric_operand(node.operand, env, "unary -")
                if isinstance(operand.node, ast.Literal):
                    # Fold -<literal> so negative divisors stay literal.
                    return _T(ast.Literal(-operand.node.value), operand.type)
                return _T(ast.UnaryOp("-", operand.node), operand.type)
            if isinstance(node.op, pyast.UAdd):
                return self._numeric_operand(node.operand, env, "unary +")
            raise _Reject("unsupported unary operator")
        if isinstance(node, pyast.BoolOp):
            return self._boolop_value(node, env)
        if isinstance(node, pyast.Compare):
            return self._compare(node, env)
        if isinstance(node, pyast.IfExp):
            cond = self._condition(node.test, env)
            then_t = self._value(node.body, env)
            else_t = self._value(node.orelse, env)
            return self._merge(cond, then_t, else_t)
        if isinstance(node, pyast.Call):
            return self._call(node, env)
        if isinstance(node, pyast.Subscript):
            return self._subscript(node, env)
        if isinstance(node, (pyast.JoinedStr, pyast.FormattedValue)):
            raise _Reject("f-strings are not translatable")
        if isinstance(node, (pyast.List, pyast.Tuple, pyast.Dict, pyast.Set)):
            raise _Reject("container literals are not translatable")
        if isinstance(node, pyast.Attribute):
            raise _Reject(f"attribute access {node.attr!r}")
        if isinstance(node, pyast.Lambda):
            raise _Reject("lambdas are not translatable")
        raise _Reject(f"unsupported expression {type(node).__name__}")

    def _constant(self, value: Any) -> _T:
        if value is None:
            return _T(ast.Literal(None), None, nullable=True)
        if isinstance(value, bool):
            return _T(ast.Literal(value), SqlType.BOOL)
        if isinstance(value, int):
            return _T(ast.Literal(value), SqlType.INT)
        if isinstance(value, float):
            return _T(ast.Literal(value), SqlType.FLOAT)
        if isinstance(value, str):
            return _T(ast.Literal(value), SqlType.TEXT)
        raise _Reject(f"unsupported constant {value!r}")

    def _numeric_operand(
        self, node: pyast.expr, env: Dict[str, _T], what: str
    ) -> _T:
        t = self._value(node, env)
        if t.nullable:
            raise _Reject(f"{what} on a possibly-None value (Python raises)")
        if t.type not in _NUMERIC:
            raise _Reject(f"{what} on {t.type} values")
        return t

    # -- operators -----------------------------------------------------

    def _binop(self, node: pyast.BinOp, env: Dict[str, _T]) -> _T:
        left = self._value(node.left, env)
        right = self._value(node.right, env)
        op = node.op
        if isinstance(op, pyast.Add):
            if left.type is SqlType.TEXT and right.type is SqlType.TEXT:
                self._require_non_null(left, right, "string concatenation")
                return _T(ast.BinaryOp("||", left.node, right.node),
                          SqlType.TEXT)
            return self._arith("+", left, right)
        if isinstance(op, pyast.Sub):
            return self._arith("-", left, right)
        if isinstance(op, pyast.Mult):
            if SqlType.TEXT in (left.type, right.type):
                raise _Reject(
                    "string repetition (str * int) has no SQL equivalent"
                )
            return self._arith("*", left, right)
        if isinstance(op, pyast.Div):
            return self._division(left, right)
        if isinstance(op, pyast.FloorDiv):
            raise _Reject(
                "// floors toward -inf with an int result; engine division "
                "is true division — no exact SQL equivalent"
            )
        if isinstance(op, pyast.Mod):
            return self._modulo(left, right)
        if isinstance(op, pyast.Pow):
            raise _Reject("** exponentiation is not translatable")
        raise _Reject(f"unsupported operator {type(op).__name__}")

    def _require_non_null(self, left: _T, right: _T, what: str) -> None:
        if left.nullable or right.nullable:
            raise _Reject(f"{what} on a possibly-None value (Python raises)")

    @staticmethod
    def _as_number(operand: _T) -> _T:
        """Materialize a BOOL operand as 0/1 before arithmetic.

        Python arithmetic treats True as 1 (``(x > 0) + (x > 2)`` can be
        2), but engines disagree on what ``+`` does to a raw boolean —
        the mini engines re-booleanize, sqlite uses ints.  An explicit
        CASE pins the Python meaning on every engine.
        """
        if operand.type is not SqlType.BOOL:
            return operand
        node = ast.CaseExpr(
            whens=((operand.node, ast.Literal(1)),),
            else_result=ast.Literal(0),
        )
        return _T(node, SqlType.INT, operand.nullable)

    def _arith(self, op: str, left: _T, right: _T) -> _T:
        self._require_non_null(left, right, f"arithmetic {op!r}")
        if left.type not in _NUMERIC or right.type not in _NUMERIC:
            raise _Reject(f"arithmetic {op!r} on non-numeric values")
        left, right = self._as_number(left), self._as_number(right)
        result = common_type(left.type, right.type)
        return _T(ast.BinaryOp(op, left.node, right.node), result)

    def _division(self, left: _T, right: _T) -> _T:
        self._require_non_null(left, right, "division")
        if left.type not in _NUMERIC or right.type not in _NUMERIC:
            raise _Reject("division on non-numeric values")
        left = self._as_number(left)
        divisor = right.node
        if not isinstance(divisor, ast.Literal) or not divisor.value:
            raise _Reject(
                "division requires a nonzero literal divisor (Python raises "
                "ZeroDivisionError where SQL yields NULL)"
            )
        # Python / is true division; a float divisor keeps sqlite (which
        # truncates INT / INT) and the mini engines on the same result.
        return _T(
            ast.BinaryOp("/", left.node, ast.Literal(float(divisor.value))),
            SqlType.FLOAT,
        )

    def _modulo(self, left: _T, right: _T) -> _T:
        self._require_non_null(left, right, "modulo")
        if left.type is not SqlType.INT or right.type is not SqlType.INT:
            raise _Reject("% requires integer operands")
        divisor = right.node
        if not isinstance(divisor, ast.Literal) or not divisor.value:
            raise _Reject(
                "% requires a nonzero literal divisor (Python raises "
                "ZeroDivisionError where SQL yields NULL)"
            )
        if self.dialect.c_style_mod:
            # Python's % takes the divisor's sign; C's takes the
            # dividend's.  ((a % b) + b) % b maps C onto Python for
            # every sign combination, and is a fixed point under
            # Python-% engines, so it is safe on both.
            inner = ast.BinaryOp("%", left.node, divisor)
            node: ast.Expr = ast.BinaryOp(
                "%", ast.BinaryOp("+", inner, divisor), divisor
            )
        else:
            node = ast.BinaryOp("%", left.node, divisor)
        return _T(node, SqlType.INT)

    def _boolop_value(self, node: pyast.BoolOp, env: Dict[str, _T]) -> _T:
        """``and``/``or`` in value position return an *operand*."""
        values = [self._value(v, env) for v in node.values]
        is_or = isinstance(node.op, pyast.Or)
        result = values[-1]
        for operand in reversed(values[:-1]):
            cond = self._truthy(operand)
            then_t, else_t = (
                (operand, result) if is_or else (result, operand)
            )
            result = self._merge(cond, then_t, else_t)
        return result

    def _compare(self, node: pyast.Compare, env: Dict[str, _T]) -> _T:
        left = self._value(node.left, env)
        parts: List[ast.Expr] = []
        for op, comparator in zip(node.ops, node.comparators):
            right = self._value(comparator, env)
            parts.append(self._compare_pair(op, left, right))
            left = right
        out = parts[0]
        for part in parts[1:]:
            out = ast.BinaryOp("AND", out, part)
        return _T(out, SqlType.BOOL)

    def _compare_pair(self, op: pyast.cmpop, left: _T, right: _T) -> ast.Expr:
        none_side = None
        if left.type is None and isinstance(left.node, ast.Literal):
            none_side, other = left, right
        elif right.type is None and isinstance(right.node, ast.Literal):
            none_side, other = right, left
        if none_side is not None:
            # `x is None`, `x == None` and their negations: for the value
            # types we translate, equality to None holds iff x is None.
            if isinstance(op, (pyast.Is, pyast.Eq)):
                return ast.IsNull(other.node)
            if isinstance(op, (pyast.IsNot, pyast.NotEq)):
                return ast.IsNull(other.node, negated=True)
            raise _Reject("ordering comparison against None (Python raises)")
        if isinstance(op, (pyast.Is, pyast.IsNot)):
            raise _Reject("is/is not between non-None values")
        sql_op = _CMP_OPS.get(type(op))
        if sql_op is None:
            raise _Reject(f"unsupported comparison {type(op).__name__}")
        self._require_non_null(left, right, f"comparison {sql_op!r}")
        numeric = left.type in _NUMERIC and right.type in _NUMERIC
        textual = left.type is SqlType.TEXT and right.type is SqlType.TEXT
        if not (numeric or textual):
            raise _Reject(
                f"comparison between {left.type} and {right.type} values"
            )
        return ast.BinaryOp(sql_op, left.node, right.node)

    # -- calls ---------------------------------------------------------

    def _call(self, node: pyast.Call, env: Dict[str, _T]) -> _T:
        if node.keywords:
            raise _Reject("keyword arguments in calls")
        if isinstance(node.func, pyast.Attribute):
            return self._method_call(node, env)
        if not isinstance(node.func, pyast.Name):
            raise _Reject("indirect calls are not translatable")
        name = node.func.id
        args = [self._value(a, env) for a in node.args]
        if name == "len":
            if len(args) != 1 or args[0].type is not SqlType.TEXT:
                raise _Reject("len() translates only for one string argument")
            self._require_non_null(args[0], args[0], "len()")
            return _T(ast.FunctionCall("length", (args[0].node,)), SqlType.INT)
        if name == "abs":
            if len(args) != 1:
                raise _Reject("abs() takes one argument")
            operand = args[0]
            self._require_non_null(operand, operand, "abs()")
            if operand.type not in _NUMERIC:
                raise _Reject("abs() on non-numeric values")
            return _T(ast.FunctionCall("abs", (operand.node,)), operand.type)
        if name in ("min", "max"):
            if len(args) != 2:
                raise _Reject(f"{name}() translates only with two arguments")
            a, b = args
            self._require_non_null(a, b, f"{name}()")
            if a.type not in _NUMERIC or b.type not in _NUMERIC:
                raise _Reject(f"{name}() on non-numeric values")
            # Python's min/max return the *first* argument on ties.
            cmp_op = "<=" if name == "min" else ">="
            node_out = ast.CaseExpr(
                whens=((ast.BinaryOp(cmp_op, a.node, b.node), a.node),),
                else_result=b.node,
            )
            return _T(node_out, common_type(a.type, b.type))
        return self._udf_call(name, node, env)

    def _method_call(self, node: pyast.Call, env: Dict[str, _T]) -> _T:
        assert isinstance(node.func, pyast.Attribute)
        method = node.func.attr
        target = self._value(node.func.value, env)
        if target.type is not SqlType.TEXT:
            raise _Reject(f"method .{method}() on {target.type} values")
        if node.args:
            raise _Reject(f".{method}() with arguments")
        self._require_non_null(target, target, f".{method}()")
        if method == "upper":
            if not self.dialect.upper_ok:
                raise _Reject(
                    f"dialect {self.dialect.name!r}: engine UPPER folds "
                    "ASCII only, Python str.upper is full Unicode"
                )
            return _T(ast.FunctionCall("upper", (target.node,)), SqlType.TEXT)
        if method == "lower":
            if not self.dialect.lower_ok:
                if self.dialect.name == "python":
                    raise _Reject(
                        "no native lower (workloads route lower through "
                        "the UDF path)"
                    )
                raise _Reject(
                    f"dialect {self.dialect.name!r}: engine LOWER folds "
                    "ASCII only, Python str.lower is full Unicode"
                )
            return _T(ast.FunctionCall("lower", (target.node,)), SqlType.TEXT)
        if method in _TRIM_METHODS:
            if not self.dialect.trim_ok:
                raise _Reject(
                    f"dialect {self.dialect.name!r}: engine TRIM strips "
                    "spaces only, Python strips all whitespace"
                )
            return _T(
                ast.FunctionCall(_TRIM_METHODS[method], (target.node,)),
                SqlType.TEXT,
            )
        raise _Reject(f"string method .{method}() is not translatable")

    def _subscript(self, node: pyast.Subscript, env: Dict[str, _T]) -> _T:
        target = self._value(node.value, env)
        if target.type is not SqlType.TEXT:
            raise _Reject(f"subscripting {target.type} values")
        self._require_non_null(target, target, "slicing")
        sl = node.slice
        if not isinstance(sl, pyast.Slice):
            raise _Reject(
                "string indexing s[i] raises IndexError out of range; "
                "only slicing translates"
            )
        if sl.step is not None:
            raise _Reject("slice step (e.g. s[::-1]) is not translatable")
        lower = self._slice_bound(sl.lower, "lower")
        upper = self._slice_bound(sl.upper, "upper")
        # Python slices clamp; substr is 1-indexed with a length.
        if lower is None and upper is None:
            return target
        if upper is None:
            node_out = ast.FunctionCall(
                "substr", (target.node, ast.Literal((lower or 0) + 1))
            )
        else:
            start = lower or 0
            length = max(upper - start, 0)
            node_out = ast.FunctionCall(
                "substr",
                (target.node, ast.Literal(start + 1), ast.Literal(length)),
            )
        return _T(node_out, SqlType.TEXT)

    @staticmethod
    def _slice_bound(node: Optional[pyast.expr], which: str) -> Optional[int]:
        if node is None:
            return None
        negate = False
        if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.USub):
            negate, node = True, node.operand
        if not (
            isinstance(node, pyast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        ):
            raise _Reject(f"non-literal slice {which} bound")
        value = -node.value if negate else node.value
        if value < 0:
            raise _Reject(
                f"negative slice {which} bound counts from the end; "
                "substr has no equivalent without a length probe"
            )
        return value

    def _udf_call(
        self, name: str, node: pyast.Call, env: Dict[str, _T]
    ) -> _T:
        func = self.definition.func
        target = func.__globals__.get(name)
        if target is None:
            # Locally-defined UDFs reach their callees through closure
            # cells rather than module globals.
            cells = func.__closure__ or ()
            for var, cell in zip(func.__code__.co_freevars, cells):
                if var == name:
                    try:
                        target = cell.cell_contents
                    except ValueError:
                        pass
                    break
        if target is None:
            raise _Reject(f"call to unknown function {name!r}")
        inner = getattr(target, "__udf__", None)
        if inner is None:
            raise _Reject(f"call to non-UDF function {name!r}")
        if self.depth + 1 > self.max_depth:
            raise _Reject(
                f"inline depth bound ({self.max_depth}) exceeded at {name!r}"
            )
        # Inline the function the body ACTUALLY calls — the one reached
        # through globals/closure — not whatever is currently registered
        # under that name: a plain Python call never consults the
        # registry, so a re-registered definition does not change this
        # caller's runtime behaviour.  The registry contributes only the
        # version stamp, so a re-registration re-translates the caller
        # (and re-resolves the callee, picking up rebound globals).
        definition, version = inner, None
        if self.registry is not None:
            registered = self.registry.lookup(inner.name)
            if registered is not None:
                version = registered.version
        result = translate_udf(
            definition,
            dialect=self.dialect,
            registry=self.registry,
            depth=self.depth + 1,
            max_inline_depth=self.max_depth,
            self_check=False,  # the outer self-check covers the composition
        )
        if isinstance(result, Untranslatable):
            raise _Reject(
                f"inlined call to {definition.name!r}: {result.reason}"
            )
        args = [self._value(a, env) for a in node.args]
        if len(args) != len(result.params):
            raise _Reject(f"arity mismatch calling {definition.name!r}")
        for arg, expected in zip(args, result.param_types):
            if arg.nullable:
                # A plain Python call does not get strict-UDF NULL
                # shielding; a None argument would execute the body.
                raise _Reject(
                    f"possibly-None argument to inlined {definition.name!r}"
                )
            if arg.type is not expected and not (
                arg.type in _NUMERIC and expected in _NUMERIC
            ):
                raise _Reject(
                    f"argument type mismatch calling {definition.name!r}"
                )
        self.deps[definition.name] = version
        self.deps.update(result.deps)
        mapping = dict(zip(result.params, [a.node for a in args]))
        return _T(_substitute(result.body, mapping), result.body_type)


# ----------------------------------------------------------------------
# Self-check: translated expression vs the Python function
# ----------------------------------------------------------------------

_PROBES = {
    SqlType.INT: [-7, -3, -1, 0, 1, 2, 5, 12, None],
    SqlType.FLOAT: [-2.5, -0.25, 0.0, 1.0, 3.75, None],
    SqlType.TEXT: ["", " ", "a", "Ab cD", "zig Zag mu", "\tox \n",
                   "ÄÖü", None],
    SqlType.BOOL: [False, True, None],
}
_MAX_PROBE_ROWS = 120


def _probe_rows(arg_types: Sequence[SqlType]) -> List[tuple]:
    pools = [_PROBES[t] for t in arg_types]
    rows = list(itertools.product(*pools))
    if len(rows) > _MAX_PROBE_ROWS:
        rows = random.Random(0xF401D).sample(rows, _MAX_PROBE_ROWS)
    return rows


def _values_agree(expected: Any, actual: Any) -> bool:
    if expected is None or actual is None:
        return expected is None and actual is None
    if isinstance(expected, float) or isinstance(actual, float):
        return float(expected) == float(actual)
    return expected == actual


def self_check(
    expr: ast.Expr,
    definition: UdfDefinition,
    *,
    resolver: Optional[FunctionResolver] = None,
) -> Optional[str]:
    """Evaluate ``expr`` against the Python function over a probe battery.

    Returns a mismatch description, or None when every probe agrees.
    The neutral :class:`RowEvaluator` stands in for the engines — its
    operator semantics (true division, Python ``%``, three-valued
    logic, strict builtins) are the reference the dialect renderings
    target, so a disagreement means the *translation* is wrong.
    """
    arg_types = definition.signature.arg_types
    params = [f"a{i}" for i in range(len(arg_types))]
    fdef_params = _param_names(definition)
    if fdef_params is not None and len(fdef_params) == len(params):
        params = fdef_params
    fields = [Field(p, t, None) for p, t in zip(params, arg_types)]
    evaluator = RowEvaluator(fields, resolver or FunctionResolver())
    for row in _probe_rows(arg_types):
        if any(v is None for v in row):
            expected: Any = None  # strict: NULL in, NULL out, no call
        else:
            try:
                expected = definition.func(*row)
            except Exception as exc:
                return (
                    f"python raised {type(exc).__name__} on probe {row!r}"
                )
        try:
            actual = evaluator.evaluate(expr, row)
        except Exception as exc:
            return (
                f"translated expression raised {type(exc).__name__} "
                f"on probe {row!r}"
            )
        if not _values_agree(expected, actual):
            return (
                f"probe {row!r}: python {expected!r} != translated {actual!r}"
            )
    return None


def _param_names(definition: UdfDefinition) -> Optional[List[str]]:
    from ..jit.inliner import function_ast

    fdef = function_ast(definition.func)
    if fdef is None:
        return None
    args = fdef.args
    return [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]


# ----------------------------------------------------------------------
# Public translation entry points
# ----------------------------------------------------------------------


def translate_udf(
    definition: UdfDefinition,
    *,
    dialect: Any = "python",
    registry: Any = None,
    resolver: Optional[FunctionResolver] = None,
    max_inline_depth: int = 3,
    self_check: bool = True,
    depth: int = 0,
):
    """Compile one scalar UDF into a SQL expression template.

    Returns a :class:`TranslatedUdf`, or :class:`Untranslatable` with a
    precise reason.  ``dialect`` is a profile name from
    :data:`DIALECT_PROFILES` or a :class:`TranslateDialect`.
    """
    profile = (
        dialect if isinstance(dialect, TranslateDialect)
        else DIALECT_PROFILES.get(str(dialect))
    )
    name = definition.name

    def reject(reason: str) -> Untranslatable:
        return Untranslatable(reason, udf=name)

    if profile is None:
        return reject(f"no translation dialect profile for {dialect!r}")
    if definition.kind is not UdfKind.SCALAR:
        return reject(f"only scalar UDFs translate (got {definition.kind})")
    if definition.is_fused:
        return reject("generated fused UDFs are not translation targets")
    if not definition.deterministic:
        return reject("volatile UDF (deterministic=False)")
    if not definition.deterministic_annotated:
        # A pure-looking AST is not enough: unannotated UDFs may hide
        # side effects behind calls we cannot see (and the author never
        # promised purity), so they take the fusion path instead.
        return reject("not annotated deterministic=True")
    if not definition.strict:
        return reject("non-strict UDF (NULL handling is caller-defined)")
    if len(definition.signature.return_types) != 1:
        return reject("multiple return values")

    translator = _BodyTranslator(
        definition, profile, registry, depth, max_inline_depth
    )
    try:
        body_t = translator.run()
        expr = _finish(body_t, definition, translator.params)
    except _Reject as exc:
        return reject(exc.reason)

    translated = TranslatedUdf(
        name=name,
        version=None,
        params=translator.params,
        param_types=tuple(definition.signature.arg_types),
        expr=expr,
        body=body_t.node,
        body_type=body_t.type,
        dialect=profile.name,
        deps=dict(translator.deps),
        guarded=isinstance(expr, ast.CaseExpr) and expr is not body_t.node,
    )
    if self_check:
        mismatch = globals()["self_check"](expr, definition, resolver=resolver)
        if mismatch is not None:
            return reject(f"self-check failed: {mismatch}")
        translated.self_checked = True
    return translated


def _finish(
    body: _T, definition: UdfDefinition, params: Tuple[str, ...]
) -> ast.Expr:
    """Coerce the body to the declared return type and add the strict
    NULL guard unless the body provably propagates every argument."""
    declared = definition.signature.return_types[0]
    node, inferred = body.node, body.type
    if inferred is not None and inferred is not declared:
        if inferred is SqlType.BOOL and declared is SqlType.INT:
            node = ast.Cast(node, SqlType.INT)
        elif inferred is SqlType.INT and declared is SqlType.FLOAT:
            node = ast.Cast(node, SqlType.FLOAT)
        elif inferred is SqlType.BOOL and declared is SqlType.FLOAT:
            node = ast.Cast(node, SqlType.FLOAT)
        else:
            raise _Reject(
                f"body produces {inferred} but the UDF declares {declared}"
            )
    if not params:
        return node
    if set(params) <= _propagating_params(node):
        return node  # NULL already propagates through every argument
    checks: Optional[ast.Expr] = None
    for param in params:
        check = ast.IsNull(ast.ColumnRef(param), negated=True)
        checks = check if checks is None else ast.BinaryOp("AND", checks, check)
    return ast.CaseExpr(whens=((checks, node),))


# ----------------------------------------------------------------------
# Statement-level translation with caching (the QFusor-facing object)
# ----------------------------------------------------------------------


class UdfTranslator:
    """Per-client translation service: memoized, poisonable, versioned.

    Bound to one registry and one engine dialect.  ``translate`` results
    are cached per (name, registered version, inlined-dependency
    versions); :meth:`poison` records a runtime de-optimization so the
    next query skips translation for that definition version entirely.
    """

    def __init__(
        self,
        registry: Any,
        dialect: Any = "python",
        *,
        resolver: Optional[FunctionResolver] = None,
        max_inline_depth: int = 3,
        self_check: bool = True,
    ):
        self.registry = registry
        self.dialect = dialect
        self.resolver = resolver
        self.max_inline_depth = max_inline_depth
        self.self_check = self_check
        self._cache: Dict[str, Tuple[Optional[int], Any]] = {}
        self._poisoned: Dict[str, Tuple[Optional[int], str]] = {}
        #: Translation attempts that ran the full pipeline (cache misses);
        #: observability for tests and the zero-call overhead ledger.
        self.translations = 0

    # -- single UDF ----------------------------------------------------

    def translate(self, name: str):
        """A cached :class:`TranslatedUdf` | :class:`Untranslatable`."""
        registered = self.registry.lookup(name)
        if registered is None:
            return Untranslatable("not registered", udf=name)
        version = registered.version
        poisoned = self._poisoned.get(registered.definition.name)
        if poisoned is not None:
            if poisoned[0] == version:
                return Untranslatable(
                    f"poisoned by runtime deopt: {poisoned[1]}",
                    udf=registered.definition.name,
                )
            del self._poisoned[registered.definition.name]
        cached = self._cache.get(registered.definition.name)
        if cached is not None and cached[0] == version:
            result = cached[1]
            if not self._deps_stale(result):
                return result
        self.translations += 1
        result = translate_udf(
            registered.definition,
            dialect=self.dialect,
            registry=self.registry,
            resolver=self.resolver,
            max_inline_depth=self.max_inline_depth,
            self_check=self.self_check,
        )
        if isinstance(result, TranslatedUdf):
            result.version = version
        self._cache[registered.definition.name] = (version, result)
        return result

    def _deps_stale(self, result: Any) -> bool:
        if not isinstance(result, TranslatedUdf) or not result.deps:
            return False
        for dep, version in result.deps.items():
            registered = self.registry.lookup(dep)
            current = None if registered is None else registered.version
            if current != version:
                return True
        return False

    def poison(self, names: Sequence[str], reason: str) -> None:
        """Blocklist translations after a runtime fault on the translated
        path; re-registration (a new version) clears the entry."""
        for name in names:
            registered = self.registry.lookup(name)
            version = None if registered is None else registered.version
            self._poisoned[name.lower()] = (version, reason)
            self._cache.pop(name.lower(), None)

    # -- whole statements ----------------------------------------------

    def translate_statement(
        self, statement: ast.Statement, catalog: Any
    ) -> TranslationResult:
        """Rewrite ``statement`` with every UDF call compiled away.

        All-or-nothing: ``result.statement`` is set only when every UDF
        reference (scalar calls in every reachable expression scope, and
        no table UDFs in FROM) translated; otherwise ``failures`` says
        why and the caller falls back to fusion.
        """
        from ..core.qfusor import referenced_udfs
        from ..core.rewrite import rewrite_statement

        result = TranslationResult()
        names = referenced_udfs(statement, self.registry)
        if not names:
            result.failures[""] = Untranslatable("no UDF references")
            return result
        for name in names:
            registered = self.registry.lookup(name)
            if registered is not None and registered.kind is not UdfKind.SCALAR:
                result.failures[name] = Untranslatable(
                    f"{registered.kind} UDFs do not translate", udf=name
                )
                continue
            translated = self.translate(name)
            if isinstance(translated, Untranslatable):
                result.failures[name] = translated
            else:
                result.translated[name] = translated
        if result.failures:
            return result

        def hook(expr: ast.Expr, fields: Any) -> ast.Expr:
            return self._rewrite_expr(expr, result.translated)

        rewritten = rewrite_statement(statement, hook, catalog)
        leftover = self._leftover_udfs(rewritten)
        if leftover:
            # A scope the text-level rewriter cannot see into (CTE or
            # derived-table schema unknown) still references UDFs.
            for name in leftover:
                result.failures[name] = Untranslatable(
                    "UDF call in a scope with unknown schema", udf=name
                )
            result.translated.clear()
            return result
        result.statement = rewritten
        return result

    def _rewrite_expr(
        self, expr: ast.Expr, translated: Dict[str, TranslatedUdf]
    ) -> ast.Expr:
        rewritten = ast.rewrite_children(
            expr, lambda e: self._rewrite_expr(e, translated)
        )
        if isinstance(rewritten, ast.FunctionCall):
            t = translated.get(rewritten.lowered_name)
            if t is not None and len(rewritten.args) == len(t.params):
                return t.substitute(rewritten.args)
        return rewritten

    def _leftover_udfs(self, statement: ast.Statement) -> List[str]:
        from ..core.qfusor import _statement_from_items, referenced_udfs

        names = referenced_udfs(statement, self.registry)
        for item in _statement_from_items(statement):
            if isinstance(item, ast.TableFunctionRef):
                names.append(item.call.lowered_name)
        return names
