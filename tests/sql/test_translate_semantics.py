"""Table-driven Python-vs-SQL semantic edge corpus (ISSUE 8 satellite).

Each case is a small UDF sitting on a known Python/SQL semantic fault
line — ``//`` vs ``/``, ``%`` on negatives, chained comparisons,
``and``/``or`` returning operands rather than booleans, ``str * int``
repetition.  Each must either translate *and agree with its own Python
body on both engine families* or be rejected with a precise
:class:`Untranslatable.reason`.  There is no third outcome: a wrong
translation is the one bug this subsystem must never ship.
"""

from __future__ import annotations

import pytest

from repro.core import QFusor
from repro.core.config import QFusorConfig
from repro.engine.database import Database
from repro.engines.minidb import MiniDbAdapter
from repro.engines.sqlite_adapter import SqliteAdapter
from repro.sql.translate import TranslatedUdf, Untranslatable, translate_udf
from repro.storage import Column, Table
from repro.types import SqlType
from repro.udf.decorators import scalar_udf

# ----------------------------------------------------------------------
# The corpus.  deterministic=True throughout: eligibility is not what
# these cases probe.
# ----------------------------------------------------------------------


@scalar_udf(name="sem_truediv", args=["int"], returns="float",
            deterministic=True)
def sem_truediv(x):
    return x / 2


@scalar_udf(name="sem_truediv_neg", args=["int"], returns="float",
            deterministic=True)
def sem_truediv_neg(x):
    return x / -4


@scalar_udf(name="sem_floordiv", args=["int"], returns="int",
            deterministic=True)
def sem_floordiv(x):
    return x // 2


@scalar_udf(name="sem_mod_neg", args=["int"], returns="int",
            deterministic=True)
def sem_mod_neg(x):
    return x % 3


@scalar_udf(name="sem_mod_neg_divisor", args=["int"], returns="int",
            deterministic=True)
def sem_mod_neg_divisor(x):
    return x % -3


@scalar_udf(name="sem_mod_var", args=["int", "int"], returns="int",
            deterministic=True)
def sem_mod_var(a, b):
    return a % b


@scalar_udf(name="sem_chained", args=["int"], returns="bool",
            deterministic=True)
def sem_chained(x):
    return -3 < x <= 4


@scalar_udf(name="sem_chained_triple", args=["int", "int"], returns="bool",
            deterministic=True)
def sem_chained_triple(a, b):
    return 0 <= a < b <= 10


@scalar_udf(name="sem_and_operand", args=["int"], returns="int",
            deterministic=True)
def sem_and_operand(x):
    return x and x + 1


@scalar_udf(name="sem_or_operand", args=["text", "text"], returns="text",
            deterministic=True)
def sem_or_operand(a, b):
    return a or b


@scalar_udf(name="sem_not_truthiness", args=["int"], returns="bool",
            deterministic=True)
def sem_not_truthiness(x):
    return not x


@scalar_udf(name="sem_str_repeat", args=["text", "int"], returns="text",
            deterministic=True)
def sem_str_repeat(s, n):
    return s * n


@scalar_udf(name="sem_bool_arith", args=["int"], returns="int",
            deterministic=True)
def sem_bool_arith(x):
    return (x > 0) + (x > 2)


@scalar_udf(name="sem_none_eq", args=["int"], returns="bool",
            deterministic=True)
def sem_none_eq(x):
    return x is None


CORPUS = [
    # (udf, translates?, reason fragment when rejected)
    (sem_truediv, True, None),
    (sem_truediv_neg, True, None),
    (sem_floordiv, False, "floors toward -inf"),
    (sem_mod_neg, True, None),
    (sem_mod_neg_divisor, True, None),
    (sem_mod_var, False, "literal divisor"),
    (sem_chained, True, None),
    (sem_chained_triple, True, None),
    (sem_and_operand, True, None),
    (sem_or_operand, True, None),
    # `not x` translates: the strict guard pins x non-NULL, so INT
    # truthiness is exactly `x != 0` and NOT is two-valued here.
    (sem_not_truthiness, True, None),
    (sem_str_repeat, False, "repetition"),
    (sem_bool_arith, True, None),
    # `x is None` translates to IS NULL; under the strict guard the body
    # only ever sees non-NULL, and NULL inputs yield NULL (not FALSE) —
    # which matches the strict Python runtime, where the function is
    # never called on a None argument.
    (sem_none_eq, True, None),
]


class TestCorpusVerdicts:
    @pytest.mark.parametrize(
        "udf,expect_translates,fragment",
        [(u, t, f) for u, t, f in CORPUS],
        ids=[u.__udf__.name for u, _t, _f in CORPUS],
    )
    def test_verdict(self, udf, expect_translates, fragment):
        result = translate_udf(udf.__udf__, dialect="python")
        if expect_translates:
            assert isinstance(result, TranslatedUdf), (
                f"{udf.__udf__.name} should translate, got: "
                f"{getattr(result, 'reason', '')}"
            )
            assert result.self_checked
        else:
            assert isinstance(result, Untranslatable), (
                f"{udf.__udf__.name} must be rejected"
            )
            assert fragment in result.reason, (
                f"reason {result.reason!r} lacks {fragment!r}"
            )


# ----------------------------------------------------------------------
# Execution agreement: translated == Python, on both engine families
# ----------------------------------------------------------------------

_INTS = [-12, -7, -3, -1, 0, 1, 2, 3, 4, 7, 11, None]
_TEXTS = ["", "a", "Zig", " pad ", None]


def _expected(udf, cols):
    """Strict-UDF semantics applied to the Python function per row."""
    out = []
    for row in zip(*cols):
        if any(v is None for v in row):
            out.append(None)
            continue
        value = udf(*row)
        out.append(int(value) if isinstance(value, bool) else value)
    return out


def _table_for(udf):
    arg_types = udf.__udf__.signature.arg_types
    cols, names = [], []
    for i, t in enumerate(arg_types):
        names.append(f"c{i}")
        if t is SqlType.TEXT:
            values = [_TEXTS[j % len(_TEXTS)] for j in range(len(_INTS))]
        else:
            values = list(_INTS)
        cols.append(values)
    table = Table(
        "sem", [Column(n, t, v) for n, t, v in
                zip(names, arg_types, cols)]
    )
    return table, names, cols


@pytest.mark.parametrize(
    "udf", [u for u, t, _f in CORPUS if t],
    ids=[u.__udf__.name for u, t, _f in CORPUS if t],
)
class TestTranslatedExecutionAgreesWithPython:
    def test_minidb(self, udf):
        table, names, cols = _table_for(udf)
        adapter = MiniDbAdapter(Database())
        adapter.register_table(table)
        adapter.register_udf(udf, deterministic=True)
        qf = QFusor(adapter, QFusorConfig.translated(cost_based=False))
        name = udf.__udf__.name
        out = qf.execute(f"SELECT {name}({', '.join(names)}) FROM sem")
        assert qf.last_report.translated == [name]
        got = [int(v) if isinstance(v, bool) else v
               for v in out.columns[0].to_list()]
        assert got == _expected(udf, cols)

    def test_sqlite(self, udf):
        table, names, cols = _table_for(udf)
        adapter = SqliteAdapter()
        adapter.register_table(table)
        adapter.register_udf(udf, deterministic=True)
        qf = QFusor(adapter, QFusorConfig.translated())
        name = udf.__udf__.name
        out = qf.execute(f"SELECT {name}({', '.join(names)}) FROM sem")
        report = qf.last_report
        # The sqlite dialect is stricter; a rejection is acceptable,
        # a silent mistranslation is not.
        if report.translated:
            got = [int(v) if isinstance(v, bool) else v
                   for v in out.columns[0].to_list()]
            assert got == _expected(udf, cols)
        else:
            assert report.translate_outcome() == "unsupported"
            got = [int(v) if isinstance(v, bool) else v
                   for v in out.columns[0].to_list()]
            assert got == _expected(udf, cols)


class TestRejectedCorpusStillRunsCorrectly:
    """Rejection must mean fallback, never failure: the fusion ladder
    still answers the query with Python semantics."""

    @pytest.mark.parametrize(
        "udf", [u for u, t, _f in CORPUS if not t and u.__udf__.arity == 1],
        ids=[u.__udf__.name for u, t, _f in CORPUS
             if not t and u.__udf__.arity == 1],
    )
    def test_falls_back_to_fusion(self, udf):
        table, names, cols = _table_for(udf)
        adapter = MiniDbAdapter(Database())
        adapter.register_table(table)
        adapter.register_udf(udf, deterministic=True)
        qf = QFusor(adapter, QFusorConfig.translated(cost_based=False))
        name = udf.__udf__.name
        out = qf.execute(f"SELECT {name}({', '.join(names)}) FROM sem")
        report = qf.last_report
        assert report.translate_outcome() == "unsupported"
        assert report.translated == []
        got = [int(v) if isinstance(v, bool) else v
               for v in out.columns[0].to_list()]
        assert got == _expected(udf, cols)
