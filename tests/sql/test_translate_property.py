"""Hypothesis property tests for the UDF-to-SQL translator.

The invariant under test is single and absolute: for every input row,
the translated SQL expression and the Python function must produce the
same value — including NULL propagation, division edge cases, unicode
slicing, and short-circuit evaluation.  The metamorphic section checks
the statement level: a translated query must return the same rows as
the untranslated one under predicate pushdown.

Two Hypothesis profiles exist.  ``translate_tier1`` is derandomized so
the default (tier-1) run is reproducible byte-for-byte in CI;
``translate_slow`` runs many more truly random examples and is selected
by setting ``RUN_SLOW`` (the nightly lane).
"""

from __future__ import annotations

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import QFusor
from repro.core.config import QFusorConfig
from repro.engine.database import Database
from repro.engine.expressions import FunctionResolver, RowEvaluator
from repro.engine.plan import Field
from repro.engines.minidb import MiniDbAdapter
from repro.sql.translate import TranslatedUdf, translate_udf
from repro.storage import Column, Table
from repro.types import SqlType
from repro.udf.decorators import scalar_udf

from .udfgen import make_translatable

settings.register_profile(
    "translate_tier1", derandomize=True, max_examples=60, deadline=None
)
settings.register_profile(
    "translate_slow", max_examples=400, deadline=None
)
PROFILE = "translate_slow" if os.environ.get("RUN_SLOW") else "translate_tier1"
_prof = settings.get_profile(PROFILE)


def _evaluate(translated: TranslatedUdf, row: tuple):
    """Evaluate the guarded translated expression over one row of
    Python values, exactly as the self-check oracle does."""
    fields = [
        Field(p, t, None)
        for p, t in zip(translated.params, translated.param_types)
    ]
    evaluator = RowEvaluator(fields, FunctionResolver())
    return evaluator.evaluate(translated.expr, row)


def _python(definition, row):
    """Strict-UDF runtime semantics: NULL in, NULL out, no call."""
    if any(v is None for v in row):
        return None
    value = definition.func(*row)
    return int(value) if isinstance(value, bool) else value


def _agree(expected, actual) -> bool:
    if expected is None or actual is None:
        return expected is None and actual is None
    if isinstance(expected, bool):
        expected = int(expected)
    if isinstance(actual, bool):
        actual = int(actual)
    if isinstance(expected, float) or isinstance(actual, float):
        return float(expected) == float(actual)
    return expected == actual


_VALUE_FOR = {
    SqlType.INT: st.one_of(st.none(), st.integers(-10**6, 10**6)),
    SqlType.FLOAT: st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e6, max_value=1e6),
    ),
    SqlType.TEXT: st.one_of(st.none(), st.text(max_size=12)),
    SqlType.BOOL: st.one_of(st.none(), st.booleans()),
}


# ----------------------------------------------------------------------
# Core invariant over the generated corpus
# ----------------------------------------------------------------------


@given(data=st.data())
@settings(_prof)
def test_translated_equals_python_on_generated_corpus(data):
    seed = data.draw(st.integers(0, 10**6), label="seed")
    gen = make_translatable(seed)
    definition = gen.definition
    translated = translate_udf(definition, dialect="python")
    assert isinstance(translated, TranslatedUdf), getattr(
        translated, "reason", ""
    )
    row = tuple(
        data.draw(_VALUE_FOR[t], label=f"arg:{t.name}")
        for t in definition.signature.arg_types
    )
    expected = _python(definition, row)
    actual = _evaluate(translated, row)
    assert _agree(expected, actual), (
        f"seed {seed} ({gen.shape}) row {row!r}: "
        f"python {expected!r} != translated {actual!r}\n{gen.source}"
    )


@given(data=st.data())
@settings(_prof)
def test_null_propagation_is_strict(data):
    """Any None argument must yield None without consulting the body."""
    seed = data.draw(st.integers(0, 10**6), label="seed")
    gen = make_translatable(seed)
    definition = gen.definition
    translated = translate_udf(definition, dialect="python")
    assert isinstance(translated, TranslatedUdf)
    arg_types = definition.signature.arg_types
    row = [
        data.draw(_VALUE_FOR[t], label=f"arg:{t.name}") for t in arg_types
    ]
    row[data.draw(st.integers(0, len(row) - 1), label="null_at")] = None
    assert _evaluate(translated, tuple(row)) is None


# ----------------------------------------------------------------------
# Targeted edges: division, unicode slicing, short-circuit
# ----------------------------------------------------------------------


@scalar_udf(name="prop_div", args=["int"], returns="float",
            deterministic=True)
def prop_div(x):
    return x / 3


@scalar_udf(name="prop_div_neg", args=["int"], returns="float",
            deterministic=True)
def prop_div_neg(x):
    return x / -7


@scalar_udf(name="prop_slice", args=["text"], returns="text",
            deterministic=True)
def prop_slice(s):
    return s[1:4].strip() + "!"


@scalar_udf(name="prop_shortcircuit", args=["int"], returns="int",
            deterministic=True)
def prop_shortcircuit(x):
    return x and 100 // 1 + x


@scalar_udf(name="prop_or_text", args=["text", "text"], returns="text",
            deterministic=True)
def prop_or_text(a, b):
    return a or b


_DIV_TRANSLATED = translate_udf(prop_div.__udf__, dialect="python")
_DIV_NEG_TRANSLATED = translate_udf(prop_div_neg.__udf__, dialect="python")
_SLICE_TRANSLATED = translate_udf(prop_slice.__udf__, dialect="python")
_OR_TRANSLATED = translate_udf(prop_or_text.__udf__, dialect="python")


@given(st.one_of(st.none(), st.integers(-10**9, 10**9)))
@settings(_prof)
def test_division_edges(x):
    for udf, translated in (
        (prop_div, _DIV_TRANSLATED),
        (prop_div_neg, _DIV_NEG_TRANSLATED),
    ):
        assert isinstance(translated, TranslatedUdf), getattr(
            translated, "reason", ""
        )
        expected = _python(udf.__udf__, (x,))
        assert _agree(expected, _evaluate(translated, (x,)))


@given(st.one_of(st.none(), st.text(max_size=8)))
@settings(_prof)
def test_unicode_slicing(s):
    """substr() must count characters (not bytes) for 'ÄÖü✓' alike."""
    assert isinstance(_SLICE_TRANSLATED, TranslatedUdf), getattr(
        _SLICE_TRANSLATED, "reason", ""
    )
    expected = _python(prop_slice.__udf__, (s,))
    assert _agree(expected, _evaluate(_SLICE_TRANSLATED, (s,)))


def test_short_circuit_never_evaluates_untranslatable_arm():
    """`x and <expr with //>` must reject — the right arm uses floor
    division — rather than translate a partially-correct expression."""
    result = translate_udf(prop_shortcircuit.__udf__, dialect="python")
    assert not isinstance(result, TranslatedUdf)
    assert "floors toward -inf" in result.reason


@given(
    st.one_of(st.none(), st.text(max_size=6)),
    st.one_of(st.none(), st.text(max_size=6)),
)
@settings(_prof)
def test_or_returns_first_truthy_operand(a, b):
    assert isinstance(_OR_TRANSLATED, TranslatedUdf)
    expected = _python(prop_or_text.__udf__, (a, b))
    assert _agree(expected, _evaluate(_OR_TRANSLATED, (a, b)))


# ----------------------------------------------------------------------
# Metamorphic: translated == untranslated at the statement level
# ----------------------------------------------------------------------


@scalar_udf(name="prop_meta", args=["int"], returns="int",
            deterministic=True)
def prop_meta(x):
    if x < 0:
        return -x
    return x * 2


def _adapter(values):
    adapter = MiniDbAdapter(Database())
    adapter.register_table(
        Table("m", [Column("v", SqlType.INT, list(values))])
    )
    adapter.register_udf(prop_meta, deterministic=True)
    return adapter


@given(st.lists(st.one_of(st.none(), st.integers(-50, 50)), max_size=30),
       st.integers(-40, 40))
@settings(_prof)
def test_metamorphic_pushdown_agreement(values, threshold):
    """The same query with translation on and off must agree, with and
    without a pushed-down predicate over the translated expression."""
    sql_plain = "SELECT prop_meta(v) FROM m"
    sql_pred = f"SELECT prop_meta(v) FROM m WHERE v > {threshold}"
    for sql in (sql_plain, sql_pred):
        on = QFusor(_adapter(values), QFusorConfig.translated(cost_based=False))
        off = QFusor(_adapter(values), QFusorConfig(cost_based=False))
        rows_on = sorted(
            (str(v) for v in on.execute(sql).columns[0].to_list()),
        )
        assert on.last_report.translated == ["prop_meta"]
        rows_off = sorted(
            (str(v) for v in off.execute(sql).columns[0].to_list()),
        )
        assert rows_on == rows_off


@pytest.mark.slow
@given(data=st.data())
@settings(settings.get_profile("translate_slow"))
def test_randomized_corpus_slow(data):
    """The RUN_SLOW lane: fresh random seeds, many examples, no
    derandomization — the widest net for translator regressions."""
    seed = data.draw(st.integers(0, 10**9), label="seed")
    gen = make_translatable(seed)
    definition = gen.definition
    translated = translate_udf(definition, dialect="python")
    assert isinstance(translated, TranslatedUdf), getattr(
        translated, "reason", ""
    )
    row = tuple(
        data.draw(_VALUE_FOR[t], label=f"arg:{t.name}")
        for t in definition.signature.arg_types
    )
    assert _agree(_python(definition, row), _evaluate(translated, row))
