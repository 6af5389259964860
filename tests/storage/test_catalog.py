"""Unit tests for the Catalog and its statistics."""

import pytest

from repro.errors import CatalogError
from repro.storage import Catalog, Column, Delta, Table
from repro.types import SqlType


def table(name="t", values=("a", "b", "a")):
    return Table.from_rows(
        name, [("x", SqlType.TEXT)], [(v,) for v in values]
    )


class TestCatalog:
    def test_register_and_get_case_insensitive(self):
        catalog = Catalog()
        catalog.register(table("People"))
        assert catalog.get("people").name == "People"
        assert "PEOPLE" in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.register(table())
        with pytest.raises(CatalogError):
            catalog.register(table())

    def test_replace(self):
        catalog = Catalog()
        catalog.register(table(values=("a",)))
        catalog.register(table(values=("a", "b")), replace=True)
        assert catalog.get("t").num_rows == 2

    def test_duplicate_columns_rejected(self):
        from repro.storage import Column

        catalog = Catalog()
        bad = Table(
            "bad",
            [Column("x", SqlType.INT, [1]), Column("x", SqlType.INT, [2])],
        )
        with pytest.raises(CatalogError):
            catalog.register(bad)

    def test_drop(self):
        catalog = Catalog()
        catalog.register(table())
        catalog.drop("T")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop("t")

    def test_unknown_get(self):
        with pytest.raises(CatalogError):
            Catalog().get("missing")

    def test_names_and_iter(self):
        catalog = Catalog()
        catalog.register(table("a"))
        catalog.register(table("b"))
        assert catalog.names() == ["a", "b"]
        assert len(list(catalog)) == 2


class TestDeltaWrites:
    def test_insert_update_delete(self):
        catalog = Catalog()
        catalog.register(table(values=("a", "b", "c")))
        new = Column("x", SqlType.TEXT, ["d", None])
        assert catalog.write("t", Delta("insert", columns={0: new}))
        assert catalog.write(
            "t", Delta("update", [0, 3], {0: Column("x", SqlType.TEXT, ["A", "D"])})
        )
        assert catalog.write("t", Delta("delete", [1, 4]))
        assert catalog.get("t").column("x").to_list() == ["A", "c", "D"]
        assert catalog.epoch("t") == 4

    def test_stale_base_is_refused(self):
        catalog = Catalog()
        catalog.register(table())
        stale = catalog.get("t")
        catalog.write("t", Delta("delete", [0]))
        assert not catalog.write("t", Delta("delete", [0]), base=stale)
        assert catalog.get("t").num_rows == 2
        assert catalog.epoch("t") == 2

    def test_replay_restores_the_recorded_epoch(self):
        catalog = Catalog()
        catalog.register(table())
        catalog.write("t", Delta("delete", [2]), epoch=7)
        assert catalog.epoch("t") == 7
        assert catalog.get("t").num_rows == 2

    def test_numeric_scatter_keeps_nulls_exact(self):
        catalog = Catalog()
        catalog.register(Table("n", [Column("v", SqlType.INT, [1, None, 3])]))
        patch = Column("v", SqlType.INT, [None, 20])
        catalog.write("n", Delta("update", [0, 1], {0: patch}))
        assert catalog.get("n").column("v").to_list() == [None, 20, 3]


class TestStats:
    def test_row_count_and_distinct(self):
        catalog = Catalog()
        catalog.register(table(values=("a", "b", "a", "c")))
        stats = catalog.stats("t")
        assert stats.row_count == 4
        assert stats.distinct["x"] == 3

    def test_distinct_selectivity(self):
        catalog = Catalog()
        catalog.register(table(values=("a",) * 10))
        assert catalog.stats("t").selectivity_of_distinct("x") == 0.1

    def test_empty_table_selectivity(self):
        catalog = Catalog()
        catalog.register(Table.empty("e", [("x", SqlType.TEXT)]))
        assert catalog.stats("e").selectivity_of_distinct("x") == 1.0

    def test_stats_refresh_on_replace(self):
        catalog = Catalog()
        catalog.register(table(values=("a",)))
        catalog.register(table(values=("a", "b", "c")), replace=True)
        assert catalog.stats("t").row_count == 3

    def test_stats_refresh_after_delta_write(self):
        catalog = Catalog()
        catalog.register(table(values=("a", "b", "a")))
        assert catalog.stats("t").distinct["x"] == 2
        catalog.write("t", Delta("insert", columns={
            0: Column("x", SqlType.TEXT, ["c"]),
        }))
        assert catalog.stats("t").row_count == 4
        assert catalog.stats("t").distinct["x"] == 3
