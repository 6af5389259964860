"""The bug class this PR exists to kill: a stale epoch resurrecting a
dead result-cache entry across a crash.

Scenario: a result cache (e.g. a warm service front-end) outlives an
adapter restart.  Before the crash, an epoch bump could sit in memory
with its WAL frame torn — after recovery the catalog legally re-reaches
the same epoch value with *different* data.  Without the generation in
the key, the old entry would be served; with it, the key can never
match across a recovery boundary.
"""

from __future__ import annotations

from repro.core import QFusor, QFusorConfig
from repro.core.qfusor import ParsedStatement
from repro.engines import MiniDbAdapter
from repro.sql.parser import parse
from repro.storage import Column, Table
from repro.types import SqlType
from repro.udf import scalar_udf


def make_table(values):
    return Table("t", [Column("a", SqlType.INT, list(values))])


@scalar_udf(name="gen_double", deterministic=True)
def gen_double(x: int) -> int:
    return x * 2


def result_config():
    return QFusorConfig(result_cache=True)


SQL = "SELECT gen_double(a) AS d FROM t"


class TestGenerationInResultKey:
    def test_result_key_changes_across_restart(self, tmp_path):
        adapter = MiniDbAdapter(durability_dir=tmp_path / "db")
        adapter.register_table(make_table([1, 2]))
        adapter.register_udf(gen_double)
        qf = QFusor(adapter, result_config())
        key1 = qf.caches.result_key(ParsedStatement.of(parse(SQL)), ["gen_double"])
        epochs_before = adapter.database.catalog.epoch("t")
        adapter.durability.abandon()

        adapter2 = MiniDbAdapter(durability_dir=tmp_path / "db")
        adapter2.register_udf(gen_double)
        qf2 = QFusor(adapter2, result_config())
        key2 = qf2.caches.result_key(ParsedStatement.of(parse(SQL)), ["gen_double"])
        assert key1 is not None and key2 is not None
        # Same table, same epoch, same UDF versions, same config —
        # the generation alone separates the keys.
        assert adapter2.database.catalog.epoch("t") == epochs_before
        assert key1.key != key2.key
        adapter2.close()

    def test_without_durability_generation_is_inert(self):
        adapter = MiniDbAdapter()
        adapter.register_table(make_table([1, 2]))
        adapter.register_udf(gen_double)
        qf = QFusor(adapter, result_config())
        key = qf.caches.result_key(ParsedStatement.of(parse(SQL)), ["gen_double"])
        assert key is not None
        assert adapter.database.catalog.generation == 0

    def test_stale_entry_not_served_after_restart(self, tmp_path):
        """End-to-end: the cache store survives the restart (warm
        front-end), epochs come back at parity — the pre-crash entry
        must structurally miss."""
        adapter = MiniDbAdapter(durability_dir=tmp_path / "db")
        adapter.register_table(make_table([1, 2]))
        adapter.register_udf(gen_double)
        qf = QFusor(adapter, result_config())
        assert qf.execute(SQL).columns[0].to_list() == [2, 4]
        qf.execute(SQL)  # second run hits
        hits_before = qf.caches.results.hits
        assert hits_before >= 1
        adapter.durability.abandon()

        adapter2 = MiniDbAdapter(durability_dir=tmp_path / "db")
        adapter2.register_udf(gen_double)
        qf2 = QFusor(adapter2, result_config())
        # Adopt the old process's result store wholesale.
        qf2.caches.results = qf.caches.results
        result = qf2.execute(SQL)
        assert result.columns[0].to_list() == [2, 4]
        # Recomputed under the new generation — no resurrected hit.
        assert qf2.caches.results.hits == hits_before
        adapter2.close()


class TestOneAppendPerWrite:
    def test_cached_minidb_dml_logs_one_record_and_retires_results(
        self, tmp_path
    ):
        """The DML's own delta record moves the epoch, so the cache's
        write hook adds no touch record of its own."""
        adapter = MiniDbAdapter(durability_dir=tmp_path / "db")
        adapter.register_table(make_table([1, 2]))
        adapter.register_udf(gen_double)
        qf = QFusor(adapter, result_config())
        assert qf.execute(SQL).columns[0].to_list() == [2, 4]
        wal = adapter.durability.wal
        lsn = wal.last_lsn
        qf.execute("INSERT INTO t VALUES (3)")
        assert wal.last_lsn == lsn + 1
        assert qf.execute(SQL).columns[0].to_list() == [2, 4, 6]
        adapter.close()
