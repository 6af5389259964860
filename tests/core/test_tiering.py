"""The tier gate in front of the ladder's preparers (``QFusor._tier``).

A cold UDF SELECT runs on the floor rung until it is seen a second time
or is big enough that one execution's estimated boundary saving pays
for translating, planning, fusing and compiling it.  What the estimate
cannot size prepares on first sight, as does everything under
``cost_based=False``.
"""

import random
import threading

import pytest

from repro.core import QFusor, QFusorConfig
from repro.core.qfusor import SIGHTINGS_CAPACITY
from repro.engines import MiniDbAdapter, SqliteAdapter
from repro.errors import UdfExecutionError
from repro.obs import METRICS, QueryReport, tracer
from repro.storage import Table
from repro.types import SqlType
from repro.udf import aggregate_udf, scalar_udf, table_udf


@scalar_udf
def tier_fold(val: str) -> str:
    return val.lower()


@scalar_udf
def tier_mark(val: str) -> str:
    return "<" + val + ">"


@scalar_udf
def tier_boom(x: int) -> int:
    if x == 7:
        raise ValueError("seven")
    return x


@aggregate_udf
class tier_total:
    def __init__(self):
        self.total = 0

    def step(self, value: int):
        self.total += value

    def final(self) -> int:
        return self.total


@table_udf(output=("token",), types=(str,))
def tier_tokens(inp_datagen):
    for (text,) in inp_datagen:
        yield (text,)


TIER_UDFS = [tier_fold, tier_mark, tier_boom, tier_total, tier_tokens]

#: Far below and far above the break-even of the default cost prior
#: (1.9 ms per call site against 2.4 us per row per call site).
SMALL_ROWS, BIG_ROWS = 20, 5000

SMALL_SQL = "SELECT tier_mark(tier_fold(v)) AS o FROM small"
BIG_SQL = "SELECT tier_mark(tier_fold(v)) AS o FROM big"


def _table(name, rows):
    return Table.from_rows(
        name, [("id", SqlType.INT), ("v", SqlType.TEXT)],
        [(i, f"Row{i}") for i in range(rows)],
    )


def make_qfusor(config=None, adapter=None, udfs=TIER_UDFS):
    adapter = adapter or MiniDbAdapter()
    adapter.register_table(_table("small", SMALL_ROWS))
    adapter.register_table(_table("big", BIG_ROWS))
    for udf in udfs:
        adapter.register_udf(udf)
    return QFusor(adapter, config)


def native_rows(sql):
    return sorted(make_qfusor(QFusorConfig.disabled()).execute(sql).to_rows())


class TestFirstAndSecondSight:
    def test_small_select_runs_on_the_floor_first(self):
        qfusor = make_qfusor()
        rows = qfusor.execute(SMALL_SQL).to_rows()
        report = qfusor.last_report
        assert report.is_udf_query
        assert report.tier.startswith("cold: first sight, est. saving ")
        assert " < prepare " in report.tier
        assert report.fused == [] and report.sections == []
        assert qfusor.cache.misses == 0  # nothing compiled
        assert sorted(rows) == native_rows(SMALL_SQL)

    def test_second_sight_prepares_and_populates_the_plan_cache(self):
        qfusor = make_qfusor(QFusorConfig(plan_cache=True))
        first = qfusor.execute(SMALL_SQL).to_rows()
        assert qfusor.last_report.cache_outcome("plan") == "miss"
        second = qfusor.execute(SMALL_SQL).to_rows()
        report = qfusor.last_report
        assert report.tier == "prepare: second sight"
        assert report.fused
        assert report.cache_outcome("plan") == "store"
        third = qfusor.execute(SMALL_SQL).to_rows()
        report = qfusor.last_report
        assert report.cache_outcome("plan") == "hit"
        assert report.tier == ""  # a plan-cache hit never reaches the gate
        assert report.fused
        assert sorted(first) == sorted(second) == sorted(third)

    def test_sightings_match_normalized_sql(self):
        qfusor = make_qfusor()
        qfusor.execute(SMALL_SQL)
        qfusor.execute("select   tier_mark(tier_fold(v))\n as o from small")
        assert qfusor.last_report.tier == "prepare: second sight"

    def test_big_table_prepares_on_first_sight(self):
        qfusor = make_qfusor()
        rows = qfusor.execute(BIG_SQL).to_rows()
        report = qfusor.last_report
        assert report.tier.startswith("prepare: first sight, est. saving ")
        assert " >= prepare " in report.tier
        assert report.fused
        assert sorted(rows) == native_rows(BIG_SQL)

    def test_measured_preparation_moves_the_estimate(self):
        qfusor = make_qfusor()
        prior = qfusor.cost_model.prepare_cost(1)
        qfusor.cost_model.observe_prepare(prior * 3, 1)
        assert qfusor.cost_model.prepare_cost(1) == pytest.approx(prior * 2)
        qfusor.execute(BIG_SQL)  # a real preparation is observed too
        assert qfusor.cost_model.prepare_cost(1) != pytest.approx(prior * 2)


class TestEagerPreparation:
    @pytest.mark.parametrize("sql", [
        "INSERT INTO small SELECT id + 100, tier_fold(v) FROM small",
        "UPDATE small SET v = tier_mark(tier_fold(v)) WHERE id < 3",
    ])
    def test_dml(self, sql):
        qfusor = make_qfusor()
        qfusor.execute(sql)
        report = qfusor.last_report
        assert report.tier == "prepare: DML"
        assert report.fused

    def test_table_function_source(self):
        qfusor = make_qfusor()
        sql = ("SELECT tier_mark(token) AS t "
               "FROM tier_tokens((SELECT v FROM small)) AS s")
        rows = qfusor.execute(sql).to_rows()
        assert qfusor.last_report.tier == "prepare: table-function source"
        assert sorted(rows) == native_rows(sql)

    @pytest.mark.parametrize("policy", ["null", "skip", "raise"])
    def test_non_default_row_error_policy(self, policy):
        qfusor = make_qfusor(QFusorConfig(row_error_policy=policy))
        qfusor.execute(SMALL_SQL)
        report = qfusor.last_report
        assert report.tier == f"prepare: row_error_policy={policy}"
        assert report.fused

    def test_table_the_adapter_cannot_size(self):
        # Its catalog holds schemas only: the rows live inside sqlite.
        qfusor = make_qfusor(
            adapter=SqliteAdapter(), udfs=[tier_fold, tier_mark]
        )
        qfusor.execute(SMALL_SQL)
        assert qfusor.last_report.tier == "prepare: unsized table small"
        assert qfusor.last_report.fused

    def test_cost_based_off_prepares_everything(self):
        qfusor = make_qfusor(QFusorConfig(cost_based=False))
        qfusor.execute(SMALL_SQL)
        assert qfusor.last_report.tier == "prepare: cost_based off"
        assert qfusor.last_report.fused

    def test_analyze_and_rewrite_sql_always_prepare(self):
        qfusor = make_qfusor()
        report = qfusor.analyze(SMALL_SQL)
        assert report.fused and report.plan_after
        rewritten = qfusor.rewrite_sql(SMALL_SQL)
        assert qfusor.last_report.fused
        assert qfusor.last_report.fused_names[0] in rewritten
        assert not qfusor._sightings  # neither consulted the gate


class TestTypedErrorsAgree:
    @pytest.mark.parametrize("sql", [
        "SELECT tier_mark(tier_fold(v)) AS o, tier_boom(id) AS b FROM small",
        "SELECT tier_total(tier_boom(id)) AS t FROM small",
    ])
    def test_same_error_cold_and_prepared(self, sql):
        def failure(run):
            with pytest.raises(UdfExecutionError) as info:
                run(sql)
            exc = info.value
            return type(exc), exc.udf_name, exc.row, exc.phase, repr(exc.original)

        qfusor = make_qfusor()
        cold = failure(qfusor.execute)
        assert qfusor.last_report.tier.startswith("cold:")
        prepared = failure(qfusor.execute)
        assert qfusor.last_report.tier == "prepare: second sight"
        native = failure(make_qfusor(QFusorConfig.disabled()).execute)
        assert cold == prepared == native
        assert cold[2] is not None or cold[3] is not None


class TestSightingTable:
    def test_stays_bounded(self):
        qfusor = make_qfusor()
        for i in range(10_000):
            qfusor.execute(f"SELECT tier_fold(v) AS f FROM small WHERE id < {i}")
        assert len(qfusor._sightings) == SIGHTINGS_CAPACITY
        # The oldest sightings were evicted, the newest kept.
        qfusor.execute("SELECT tier_fold(v) AS f FROM small WHERE id < 0")
        assert qfusor.last_report.tier.startswith("cold:")
        qfusor.execute("SELECT tier_fold(v) AS f FROM small WHERE id < 9999")
        assert qfusor.last_report.tier == "prepare: second sight"

    def test_concurrent_first_sightings(self):
        qfusor = make_qfusor()
        statements = [
            f"SELECT tier_mark(tier_fold(v)) AS o FROM small WHERE id >= {i}"
            for i in range(40)
        ]
        expected = {sql: native_rows(sql) for sql in statements}
        barrier = threading.Barrier(8)
        errors = []

        def client(seed):
            order = list(statements)
            random.Random(seed).shuffle(order)
            barrier.wait()
            try:
                for sql in order:
                    if sorted(qfusor.execute(sql).to_rows()) != expected[sql]:
                        errors.append(f"wrong rows: {sql}")
            except Exception as exc:  # surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(qfusor._sightings) == len(statements)
        for sql in statements:
            qfusor.execute(sql)
            assert qfusor.last_report.tier == "prepare: second sight"


class TestObservability:
    def test_tier_event_and_counter(self):
        qfusor = make_qfusor()
        with tracer.enabled_scope(tracing=True, metrics=True):
            with tracer.trace_query("tier-probe") as trace:
                qfusor.execute(SMALL_SQL)
            snapshot = METRICS.snapshot()
        events = [
            event for event in QueryReport(trace).events()
            if event["name"] == "tier"
        ]
        assert len(events) == 1
        assert any(
            series.startswith("repro_tier_total") and "cold" in series
            for series in snapshot["counters"]
        )
