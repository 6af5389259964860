"""Unit tests for JSON serde and CSV I/O."""

import pytest

from repro.storage import Table, csvio, serde
from repro.types import SqlType


class TestSerde:
    def test_roundtrip_nested(self):
        value = {"a": [1, 2, {"b": None}], "c": "text"}
        assert serde.deserialize(serde.serialize(value)) == value

    def test_compact_separators(self):
        assert serde.serialize([1, 2]) == "[1,2]"

    def test_unicode_preserved(self):
        assert serde.deserialize(serde.serialize(["αθήνα"])) == ["αθήνα"]

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_nonfinite_round_trip(self, value):
        # serialize() emits the json.dumps extended spellings
        # ("NaN"/"Infinity"/"-Infinity") and deserialize() reads them back.
        back = serde.deserialize(serde.serialize(value))
        if value != value:
            assert back != back
        else:
            assert back == value


    @pytest.mark.parametrize(
        "text",
        ["0", "-0", "7", "-12", "12.5", "0.001", "1e5", "1E-5",
         "2.5e+10", "-3.25E2"],
    )
    def test_json_numbers_parse(self, text):
        assert serde.deserialize(text) == float(text)

    @pytest.mark.parametrize(
        "text",
        ["-", "+", "1e", "1e+", ".", "nan", "inf", "-inf", "1_000",
         "+1", "01", "1.", ".5", "NAN", "infinity", "+Infinity"],
    )
    def test_foreign_number_spellings_rejected(self, text):
        # deserialize() follows the JSON number grammar (plus the
        # NaN/Infinity spellings serialize() emits), not float().
        with pytest.raises(ValueError):
            serde.deserialize(text)


class TestCsvIo:
    def make_table(self):
        return Table.from_rows(
            "mix",
            [
                ("i", SqlType.INT),
                ("f", SqlType.FLOAT),
                ("s", SqlType.TEXT),
                ("b", SqlType.BOOL),
                ("j", SqlType.JSON),
            ],
            [
                (1, 1.5, "hello, world", True, '["x","y"]'),
                (None, None, None, None, None),
                (-3, 0.0, 'quote " inside', False, "{}"),
            ],
        )

    def test_roundtrip_with_header(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "t.csv"
        csvio.save_csv(table, path)
        loaded = csvio.load_csv(path)
        assert loaded.to_rows() == table.to_rows()
        assert tuple(loaded.schema.types) == tuple(table.schema.types)

    def test_roundtrip_with_explicit_schema(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "t.csv"
        csvio.save_csv(table, path)
        # Explicit schema requires skipping the type row: save writes it,
        # so load with schema must reject a mismatched header.
        loaded = csvio.load_csv(path)
        assert loaded.num_rows == 3

    def test_schema_mismatch_raises(self, tmp_path):
        from repro.errors import TypeMismatchError

        table = self.make_table()
        path = tmp_path / "t.csv"
        csvio.save_csv(table, path)
        with pytest.raises(TypeMismatchError):
            csvio.load_csv(path, schema=[("wrong", SqlType.INT)])

    def test_table_name_from_filename(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "dataset.csv"
        csvio.save_csv(table, path)
        assert csvio.load_csv(path).name == "dataset"


class TestCsvErrors:
    def test_bad_cell_carries_location(self, tmp_path):
        from repro.errors import CsvFormatError

        path = tmp_path / "bad.csv"
        path.write_text("a,b\nINT,TEXT\n1,x\noops,y\n")
        with pytest.raises(CsvFormatError) as info:
            csvio.load_csv(path)
        err = info.value
        assert err.path == str(path)
        assert err.line == 4
        assert err.column == "a"
        assert err.text == "oops"
        assert "oops" in str(err) and "line 4" in str(err)

    def test_short_row_raises_instead_of_dropping_columns(self, tmp_path):
        from repro.errors import CsvFormatError

        path = tmp_path / "short.csv"
        path.write_text("a,b\nINT,TEXT\n1\n")
        with pytest.raises(CsvFormatError) as info:
            csvio.load_csv(path)
        assert info.value.line == 3
        assert "expected 2 fields" in str(info.value)

    def test_long_row_raises(self, tmp_path):
        from repro.errors import CsvFormatError

        path = tmp_path / "long.csv"
        path.write_text("a\nINT\n1,extra\n")
        with pytest.raises(CsvFormatError):
            csvio.load_csv(path)


class TestAtomicSave:
    def test_save_is_atomic_under_midwrite_failure(self, tmp_path, monkeypatch):
        table = TestCsvIo().make_table()
        path = tmp_path / "t.csv"
        csvio.save_csv(table, path)
        original = path.read_bytes()

        # Make the next save blow up mid-write: the original must survive.
        def exploding_rows(self):
            yield from ()
            raise RuntimeError("boom")

        bigger = TestCsvIo().make_table()
        monkeypatch.setattr(type(bigger), "rows", exploding_rows)
        with pytest.raises(RuntimeError):
            csvio.save_csv(bigger, path)
        assert path.read_bytes() == original
        assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())

    def test_save_with_fsync(self, tmp_path):
        table = TestCsvIo().make_table()
        path = tmp_path / "t.csv"
        csvio.save_csv(table, path, fsync=True)
        assert csvio.load_csv(path).to_rows() == table.to_rows()
