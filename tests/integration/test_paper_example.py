"""End-to-end walk of the paper's running example (Figures 1 and 2).

Q3 — the author-pair collaboration query — exercises every part of
QFusor at once: JSON cleansing chains, a table-UDF expansion, a
self-join on pair strings, and UDF-heavy conditional aggregation.
"""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.udf import UdfKind
from repro.workloads import udfbench


@pytest.fixture(scope="module")
def native_result():
    adapter = MiniDbAdapter()
    udfbench.setup(adapter, "tiny")
    return sorted(
        map(repr, adapter.execute_sql(udfbench.QUERIES["Q3"]).to_rows())
    )


def fresh_qfusor(config=None):
    adapter = MiniDbAdapter()
    udfbench.setup(adapter, "tiny")
    return QFusor(adapter, (config or QFusorConfig()).ablated(cost_based=False))


class TestRunningExample:
    def test_result_matches_native(self, native_result):
        qfusor = fresh_qfusor()
        got = sorted(
            map(repr, qfusor.execute(udfbench.QUERIES["Q3"]).to_rows())
        )
        assert got == native_result

    def test_pairs_cte_chain_fused_into_table_udf(self, native_result):
        """combinations(jsort(jsortvalues(removeshortterms(jlower(...)))))
        collapses into one fused table UDF (the Figure 2 rewrite)."""
        qfusor = fresh_qfusor()
        qfusor.execute(udfbench.QUERIES["Q3"])
        table_fused = [
            f for f in qfusor.last_report.fused
            if f.definition.kind is UdfKind.TABLE
        ]
        assert table_fused
        names = table_fused[0].definition.fused_from
        assert "combinations" in names
        assert "jlower" in names and "jsort" in names

    def test_sum_case_cleandate_fused_into_aggregate_udfs(self):
        """The three SUM(CASE WHEN cleandate(...) ...) aggregates fuse
        cleandate + between/comparison + case + sum into aggregate UDFs."""
        qfusor = fresh_qfusor()
        qfusor.execute(udfbench.QUERIES["Q3"])
        agg_fused = [
            f for f in qfusor.last_report.fused
            if f.definition.kind is UdfKind.AGGREGATE
        ]
        assert len(agg_fused) >= 3
        assert any("cleandate" in f.definition.fused_from for f in agg_fused)
        assert any("sum" in f.definition.fused_from for f in agg_fused)

    def test_join_stays_in_engine(self):
        qfusor = fresh_qfusor()
        qfusor.execute(udfbench.QUERIES["Q3"])
        assert "Join" in qfusor.last_report.plan_after

    def test_fusion_eliminates_interior_conversions(self, native_result):
        from repro.udf import boundary

        native = MiniDbAdapter()
        udfbench.setup(native, "tiny")
        boundary.counters.reset()
        native.execute_sql(udfbench.QUERIES["Q3"])
        unfused = boundary.counters.snapshot()

        qfusor = fresh_qfusor()
        boundary.counters.reset()
        qfusor.execute(udfbench.QUERIES["Q3"])
        fused = boundary.counters.snapshot()

        # Fewer crossings overall, and — the section 4.2.4 effect — the
        # JSON (de-)serializations interior to the jlower -> ... ->
        # combinations chain are gone entirely.
        total = lambda s: sum(s.values())  # noqa: E731
        assert total(fused) < total(unfused)
        assert fused["deserializations"] < unfused["deserializations"] / 1.8
        assert fused["serializations"] < unfused["serializations"] / 2

    def test_scalar_only_profile_fuses_less(self):
        full = fresh_qfusor()
        full.execute(udfbench.QUERIES["Q3"])
        yesql = fresh_qfusor(QFusorConfig.yesql_like())
        yesql.execute(udfbench.QUERIES["Q3"])
        full_kinds = {f.definition.kind for f in full.last_report.fused}
        yesql_kinds = {f.definition.kind for f in yesql.last_report.fused}
        assert UdfKind.AGGREGATE in full_kinds
        assert UdfKind.AGGREGATE not in yesql_kinds

    def test_report_records_overheads(self):
        qfusor = fresh_qfusor()
        qfusor.execute(udfbench.QUERIES["Q3"])
        report = qfusor.last_report
        assert report.fus_optim_seconds > 0
        assert report.codegen_seconds > 0
        # the paper's Fig. 4 (bottom): overheads are milliseconds
        assert report.total_overhead_seconds < 1.0
