"""Wrappers are compiled on the first call that needs them.

Registration compiles nothing; the columnar kernels run scalar,
aggregate and table UDFs without a wrapper, so on the columnar adapter
only the fused traces a statement prepares reach ``compile``.  Without
the columnar plane a table UDF compiles only the mode (relation or
expand) it is called in.  The paper
query set (the four suites of ``repro.workloads``) is the measure: one
cold pass over its 17 statements on a fresh adapter and QFusor compiled
41 sources when every registration built its wrapper.
"""

from __future__ import annotations

import ast
import builtins

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.workloads import udfbench, udo_wl, weld_wl, zillow

SUITES = (udfbench, zillow, weld_wl, udo_wl)


def paper_udfs():
    return [
        udf for suite in SUITES
        for udf in getattr(suite, "ALL_UDFS", None) or suite.udfs.ALL_UDFS
    ]


@pytest.fixture(scope="module")
def paper_tables():
    return [
        table for index, suite in enumerate(SUITES)
        for table in suite.build_tables(200, 1 + 101 * index)
    ]


@pytest.fixture
def compiles(monkeypatch):
    """Filenames of the generated code objects compiled while the test
    runs.  Module imports (a real path) and ``ast.parse`` (an AST, not
    code) go through ``compile`` too; those are not counted."""
    seen = []
    real = builtins.compile

    def spy(source, filename, mode, flags=0, *args, **kwargs):
        generated = isinstance(filename, str) and filename.startswith("<")
        if generated and not flags & ast.PyCF_ONLY_AST:
            seen.append(filename)
        return real(source, filename, mode, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", spy)
    return seen


def loaded(tables, udfs, columnar=True):
    adapter = MiniDbAdapter(columnar=columnar)
    for table in tables:
        adapter.register_table(table, replace=True)
    for udf in udfs:
        adapter.register_udf(udf, replace=True)
    return adapter


def test_registration_compiles_nothing(paper_tables, compiles):
    udfs = paper_udfs()
    assert len(udfs) == 39
    loaded(paper_tables, udfs)
    assert compiles == []


def test_scalar_statement_compiles_nothing(paper_tables, compiles):
    adapter = loaded(paper_tables, paper_udfs())
    assert adapter.execute_sql(udfbench.QUERIES["Q1"]).num_rows > 0
    assert compiles == []


def test_columnar_expand_statement_compiles_nothing(paper_tables, compiles):
    adapter = loaded(paper_tables, paper_udfs())
    assert adapter.execute_sql(udfbench.QUERIES["Q6"]).num_rows > 0
    assert compiles == []


def test_first_expand_call_compiles_one_wrapper(paper_tables, compiles):
    adapter = loaded(paper_tables, paper_udfs(), columnar=False)
    adapter.execute_sql(udfbench.QUERIES["Q6"])
    # Only the expand-mode entry of tokens (beside the scalar lower's
    # wrapper): the relation mode is never called.
    assert sorted(compiles) == [
        "<wrapper:wrapper_lower>", "<wrapper:wrapper_tokens_expand>"
    ]
    adapter.execute_sql(udfbench.QUERIES["Q6"])
    assert len(compiles) == 2


def test_table_modes_compile_separately(paper_tables, compiles):
    adapter = loaded(paper_tables, paper_udfs())
    wrapper = adapter.registry.get("tokens").wrapper
    wrapper.entry_for("table")
    assert compiles == ["<wrapper:wrapper_tokens>"]
    wrapper.entry_for("table_expand")
    wrapper.entry_for("table")
    assert compiles == [
        "<wrapper:wrapper_tokens>", "<wrapper:wrapper_tokens_expand>"
    ]


def test_cold_pass_compiles_at_most_one(paper_tables, compiles):
    statements = {}
    for suite in SUITES:
        statements.update(suite.QUERIES)
    assert len(statements) == 17
    qfusor = QFusor(
        loaded(paper_tables, paper_udfs()),
        QFusorConfig(translate_enabled=True, plan_cache=True, udf_memo=True),
    )
    for sql in statements.values():
        qfusor.execute(sql)
    assert len(compiles) <= 1, compiles
