"""Unit tests for the engine adapters (pluggability, section 5.5)."""

import pytest

from repro.core import QFusor
from repro.engine import Database
from repro.engines import (
    DuckDbLikeAdapter, MiniDbAdapter, ParallelDbAdapter, RowStoreAdapter,
    SqliteAdapter, TupleDbAdapter,
)
from repro.storage import Table
from repro.types import SqlType
from repro.udf import aggregate_udf
from repro.udf.registry import ProcessChannel
from tests.conftest import TEST_UDFS, make_json_table, make_people_table

ADAPTER_FACTORIES = [
    MiniDbAdapter, RowStoreAdapter, TupleDbAdapter, DuckDbLikeAdapter,
    ParallelDbAdapter,
]


def load(adapter):
    adapter.register_table(make_people_table())
    adapter.register_table(make_json_table())
    for udf in TEST_UDFS:
        adapter.register_udf(udf)
    return adapter


PARITY_QUERIES = [
    "SELECT t_upper(t_lower(name)) AS n FROM people ORDER BY n",
    "SELECT city, t_count(name) AS n FROM people GROUP BY city ORDER BY city",
    "SELECT id, t_tokens(body) AS tok FROM docs WHERE id <= 2 ORDER BY id",
    "SELECT id FROM people WHERE t_inc(age) > 30 ORDER BY id",
]


class TestAdapterParity:
    @pytest.mark.parametrize("factory", ADAPTER_FACTORIES)
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_all_adapters_agree(self, factory, sql):
        reference = load(MiniDbAdapter()).execute_sql(sql).to_rows()
        adapter = load(factory())
        assert adapter.execute_sql(sql).to_rows() == reference

    @pytest.mark.parametrize("factory", ADAPTER_FACTORIES)
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_qfusor_on_every_adapter(self, factory, sql):
        reference = load(MiniDbAdapter()).execute_sql(sql).to_rows()
        qfusor = QFusor(load(factory()))
        assert qfusor.execute(sql).to_rows() == reference


class TestSetOperationTypes:
    """A set operation is typed by its left input on both executors."""

    def load(self, adapter):
        adapter.register_table(Table.from_rows(
            "t", [("i", SqlType.INT)], [(1,), (2,)]
        ))
        adapter.register_table(Table.from_rows(
            "u", [("f", SqlType.FLOAT)], [(1.5,), (2.0,)]
        ))
        return adapter

    def test_float_into_int_raises_the_same_error(self):
        sql = "SELECT i FROM t UNION SELECT f FROM u"
        errors = []
        for factory in (MiniDbAdapter, TupleDbAdapter):
            with pytest.raises(Exception) as err:
                self.load(factory()).execute_sql(sql)
            errors.append(type(err.value))
        assert errors[0] is errors[1]
        assert errors[0].__name__ == "TypeMismatchError"

    @pytest.mark.parametrize("factory", [MiniDbAdapter, TupleDbAdapter])
    def test_int_into_float_widens(self, factory):
        result = self.load(factory()).execute_sql(
            "SELECT f FROM u UNION SELECT i FROM t"
        )
        assert result.to_rows() == [(1.5,), (2.0,), (1.0,)]


@aggregate_udf(name="pair_sum")
class PairSum:
    def __init__(self):
        self.total = 0

    def step(self, a: int, b: int):
        self.total += (a or 0) * 10 + (b or 0)

    def final(self) -> int:
        return self.total


class TestAggregateNullRule:
    @pytest.mark.parametrize("factory", ADAPTER_FACTORIES + [SqliteAdapter])
    def test_strict_aggregate_skips_only_all_null_rows(self, factory):
        """A row with some NULL arguments is stepped; only a row whose
        arguments are all NULL is skipped, on every executor."""
        adapter = factory()
        adapter.register_table(Table.from_rows(
            "pairs",
            [("g", SqlType.INT), ("a", SqlType.INT), ("b", SqlType.INT)],
            [(1, 1, None), (1, None, None), (1, 2, 3), (2, None, 5)],
        ))
        adapter.register_udf(PairSum)
        sql = "SELECT g, pair_sum(a, b) FROM pairs GROUP BY g ORDER BY g"
        assert adapter.execute_sql(sql).to_rows() == [(1, 33), (2, 5)]


#: (adapter.name, database.name, execution_model,
#: push_filter_below_udf_project, registry.channel is None,
#: own_scheduler threads, supports_plan_dispatch, translate_dialect) of
#: each profile, as the six separate adapter modules declared them.
PROFILES = {
    MiniDbAdapter:
        ("minidb", "minidb", "vector", True, True, None, True, "python"),
    RowStoreAdapter:
        ("minidb_row", "minidb_row", "tuple", False, False, None, True,
         "python"),
    TupleDbAdapter:
        ("sqlite", "tupledb", "tuple", True, True, None, True, "python"),
    DuckDbLikeAdapter:
        ("duckdb", "duckdb_like", "vector", True, True, None, True,
         "python"),
    ParallelDbAdapter:
        ("dbx", "dbx", "vector", True, True, 4, True, "python"),
}


class TestProfiles:
    @pytest.mark.parametrize("factory", ADAPTER_FACTORIES)
    def test_profile_is_what_the_separate_adapter_declared(self, factory):
        adapter = factory()
        database = adapter.database
        own = database.own_scheduler
        assert (
            adapter.name,
            database.name,
            database.execution_model,
            database.optimizer.profile.push_filter_below_udf_project,
            adapter.registry.channel is None,
            own.threads if own is not None else None,
            adapter.supports_plan_dispatch,
            adapter.translate_dialect,
        ) == PROFILES[factory]
        assert database.optimizer.profile.name == database.name
        assert adapter.catalog is database.catalog
        assert adapter.columnar is None and adapter.workers is None

    def test_row_store_owns_its_channel(self):
        adapter = RowStoreAdapter()
        assert adapter.registry.channel is adapter.channel
        assert adapter.isolation == "channel"
        with pytest.raises(ValueError):
            RowStoreAdapter(isolation="thread")

    def test_database_is_adopted_not_copied(self):
        database = Database("mine", execution_model="tuple")
        assert MiniDbAdapter(database).database is database
        assert QFusor(database).adapter.database is database


class TestRowStoreChannel:
    def test_adapter_uses_process_channel(self):
        adapter = RowStoreAdapter()
        assert type(adapter.channel) is ProcessChannel

    def test_tuple_query_path_does_not_cross_channel(self):
        """The tuple execution model invokes UDFs per value in process,
        so a fused query leaves the channel untouched and still matches
        the engine's own answer."""
        adapter = load(RowStoreAdapter())
        sql = "SELECT t_upper(t_lower(name)) AS n FROM people ORDER BY n"
        reference = adapter.execute_sql(sql).to_rows()
        assert QFusor(adapter).execute(sql).to_rows() == reference
        assert adapter.channel.crossings == 0

    def test_udf_batches_cross_the_process_channel(self):
        adapter = load(RowStoreAdapter())
        adapter.execute_sql("SELECT t_lower(name) FROM people")
        assert adapter.channel.crossings == 0  # tuple path is per-value
        # vectorized invocation path (through QFusor plan dispatch) uses
        # batch crossings: exercise call_scalar directly
        from repro.storage import Column
        from repro.types import SqlType

        col = Column("v", SqlType.TEXT, ["A"])
        adapter.registry.get("t_lower").call_scalar([col], 1)
        assert adapter.channel.crossings == 2

    def test_default_clients_leave_adapter_settings_alone(self):
        """The worker pool and the breaker board are configured on their
        owner; attaching default clients (a second one included — the
        board is shared by every client of the adapter) must write to
        neither of them."""
        adapter = RowStoreAdapter(isolation="process")
        try:
            adapter.workers.configure(
                max_batch_retries=1, batch_timeout_s=2.5
            )
            adapter.registry.breakers.configure(
                enabled=True, window=8, min_calls=2, cooldown_s=60.0
            )
            QFusor(adapter)
            QFusor(adapter)
            pool = adapter.workers
            assert pool.max_batch_retries == 1
            assert pool.batch_timeout_s == 2.5
            board = adapter.registry.breakers
            assert board.enabled
            assert (board.window, board.min_calls, board.cooldown_s) == (
                8, 2, 60.0
            )
        finally:
            adapter.close()


class TestParallelAdapter:
    def test_thread_count_configurable(self):
        adapter = ParallelDbAdapter(threads=2)
        assert adapter.threads == 2
        # Threads without the plane: UDFs keep their classic crossings.
        assert adapter.registry.columnar is None
        assert adapter.database.own_scheduler.morsel_size == 4096

    def test_dml_passthrough(self):
        adapter = load(ParallelDbAdapter())
        adapter.execute_sql("DELETE FROM people WHERE id = 1")
        result = adapter.execute_sql("SELECT count(*) FROM people")
        assert result.to_rows() == [(4,)]
