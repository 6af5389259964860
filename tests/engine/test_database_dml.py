"""Unit tests for DML (including UDFs in DML, paper section 4.2.5)."""

import sys
import threading

import pytest

from repro.engine import Database
from repro.engines import MiniDbAdapter
from repro.errors import CatalogError, ExecutionError
from repro.storage import Table
from repro.types import SqlType
from repro.udf import scalar_udf

SEEN = []


@scalar_udf
def f_raise_on_3(x: int) -> int:
    SEEN.append(x)
    if x == 3:
        raise ValueError("three")
    return x * 10


class TestInsert:
    def test_insert_values(self, db):
        db.execute(
            "INSERT INTO people (id, name, age, city, score) "
            "VALUES (6, 'Frank Zappa', 52, 'Paris', 10.0)"
        )
        result = db.execute("SELECT name FROM people WHERE id = 6")
        assert result.to_rows() == [("Frank Zappa",)]

    def test_insert_partial_columns_pads_null(self, db):
        db.execute("INSERT INTO people (id, name) VALUES (7, 'Grace H')")
        result = db.execute("SELECT age, city FROM people WHERE id = 7")
        assert result.to_rows() == [(None, None)]

    def test_insert_select(self, db):
        before = db.execute("SELECT count(*) FROM people").to_rows()[0][0]
        db.execute("INSERT INTO people SELECT * FROM people WHERE id = 1")
        after = db.execute("SELECT count(*) FROM people").to_rows()[0][0]
        assert after == before + 1

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO people (id, name) VALUES (1)")


class TestUpdate:
    def test_update_with_where(self, db):
        db.execute("UPDATE people SET age = 99 WHERE city = 'Athens'")
        result = db.execute("SELECT id FROM people WHERE age = 99 ORDER BY id")
        assert result.to_rows() == [(1,), (3,)]

    def test_update_with_udf(self, db):
        db.execute("UPDATE people SET name = t_lower(name) WHERE id = 1")
        result = db.execute("SELECT name FROM people WHERE id = 1")
        assert result.to_rows() == [("alice smith",)]

    def test_update_udf_in_predicate(self, db):
        db.execute(
            "UPDATE people SET age = 0 WHERE t_firstword(t_lower(name)) = 'bob'"
        )
        result = db.execute("SELECT age FROM people WHERE id = 2")
        assert result.to_rows() == [(0,)]

    def test_update_rowcount(self, db):
        result = db.execute("UPDATE people SET age = 1")
        assert result.to_rows() == [(5,)]

    def test_set_udf_runs_only_on_updated_rows(self):
        """WHERE selects first; a SET UDF that would raise on an
        unselected row never sees it (as in sqlite)."""
        database = Database()
        database.register_table(
            Table.from_rows("u", [("id", SqlType.INT)], [(1,), (2,), (3,), (4,)])
        )
        database.register_udf(f_raise_on_3)
        SEEN.clear()
        result = database.execute("UPDATE u SET id = f_raise_on_3(id) WHERE id = 1")
        assert result.to_rows() == [(1,)]
        assert SEEN == [1]
        rows = database.execute("SELECT id FROM u ORDER BY id").to_rows()
        assert rows == [(2,), (3,), (4,), (10,)]

    def test_update_coerces_new_values_to_the_column_type(self, db):
        db.execute("UPDATE people SET score = age WHERE city = 'Athens'")
        result = db.execute("SELECT id, score FROM people ORDER BY id")
        assert result.to_rows() == [
            (1, 34.0), (2, 75.0), (3, None), (4, None), (5, 60.0),
        ]
        assert isinstance(result.to_rows()[0][1], float)


class TestConcurrentDml:
    N_THREADS, PER_THREAD = 4, 200

    def test_concurrent_inserts_lose_no_rows_and_survive_a_crash(self, tmp_path):
        """Writers on one adapter each compute a delta against the table
        they read; a delta whose base was replaced meanwhile is computed
        again, so no insert is lost, live or after WAL recovery."""
        adapter = MiniDbAdapter(durability_dir=tmp_path / "db")
        adapter.register_table(
            Table.from_rows("t", [("id", SqlType.INT), ("v", SqlType.TEXT)], [(0, "seed")])
        )
        barrier = threading.Barrier(self.N_THREADS)

        def writer(slot):
            barrier.wait()
            for i in range(self.PER_THREAD):
                n = 1 + slot * self.PER_THREAD + i
                adapter.execute_sql(f"INSERT INTO t VALUES ({n}, 'w{slot}')")

        threads = [
            threading.Thread(target=writer, args=(slot,))
            for slot in range(self.N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        rows = sorted(adapter.execute_sql("SELECT id, v FROM t").to_rows())
        assert len(rows) == 1 + self.N_THREADS * self.PER_THREAD
        assert [r[0] for r in rows] == list(range(len(rows)))

        adapter.durability.abandon()  # crash: no checkpoint, no close
        recovered = MiniDbAdapter(durability_dir=tmp_path / "db")
        try:
            after = sorted(recovered.execute_sql("SELECT id, v FROM t").to_rows())
            assert after == rows
        finally:
            recovered.close()


class TestDelete:
    def test_delete_with_where(self, db):
        db.execute("DELETE FROM people WHERE age IS NULL")
        assert db.execute("SELECT count(*) FROM people").to_rows() == [(4,)]

    def test_delete_all(self, db):
        db.execute("DELETE FROM people")
        assert db.execute("SELECT count(*) FROM people").to_rows() == [(0,)]

    def test_delete_with_udf_predicate(self, db):
        db.execute("DELETE FROM people WHERE t_lower(city) = 'athens'")
        assert db.execute("SELECT count(*) FROM people").to_rows() == [(3,)]


class TestCreateDrop:
    def test_create_table_as(self, db):
        db.execute("CREATE TABLE adults AS SELECT * FROM people WHERE age >= 30")
        assert db.execute("SELECT count(*) FROM adults").to_rows() == [(2,)]

    def test_create_with_udf(self, db):
        db.execute(
            "CREATE TABLE lowered AS SELECT t_lower(name) AS n FROM people"
        )
        rows = db.execute("SELECT n FROM lowered ORDER BY n").to_rows()
        assert rows[0] == ("alice smith",)

    def test_drop(self, db):
        db.execute("CREATE TABLE tmp AS SELECT id FROM people")
        db.execute("DROP TABLE tmp")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM tmp")

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS nothing_here")  # no error


class TestExplain:
    def test_explain_returns_plan_text(self, db):
        result = db.execute("EXPLAIN SELECT t_lower(name) FROM people WHERE age > 1")
        text = "\n".join(r[0] for r in result.to_rows())
        assert "Scan(people" in text
        assert "Filter" in text
        assert "rows~" in text
