"""A JSON column survives the log's JSON payloads unchanged.

A raw value is serialized when the table is built, so the WAL and
checkpoint image (``encode_table`` → ``json`` → ``decode_table``)
carries text and recovery returns exactly the values that were stored.
"""

import json

from repro.storage import Table
from repro.storage.durability.records import decode_table, encode_table
from repro.types import SqlType


def test_raw_json_values_round_trip_through_a_table_record():
    table = Table.from_rows(
        "t", [("id", SqlType.INT), ("j", SqlType.JSON)],
        [(0, {1: "a"}), (1, (1, 2)), (2, 1.0), (3, None)],
    )
    payload = json.loads(json.dumps(encode_table(table)))
    recovered = decode_table(payload)
    assert recovered.to_rows() == table.to_rows()
    assert recovered.columns[1].to_list() == ['{"1":"a"}', "[1,2]", "1.0", None]
