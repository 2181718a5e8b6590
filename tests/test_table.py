"""Unit tests for the columnar Table and its row-selection verbs."""

import numpy as np
import pytest

from repro.tables.schema import Schema
from repro.tables.table import Table

SCHEMA = Schema.of(K="uint32", V="int64")


def make_table(keys, vals):
    return Table.from_columns(SCHEMA, K=keys, V=vals)


def test_from_rows_and_row_access():
    schema = Schema.of(POS="uint32", SEQ="uint8[]")
    table = Table.from_rows(schema, [
        {"POS": 5, "SEQ": [0, 1]},
        {"POS": 9, "SEQ": [2]},
    ])
    assert table.num_rows == 2
    row = table.row(1)
    assert row["POS"] == 9
    assert row["SEQ"].tolist() == [2]


def test_row_out_of_range():
    table = make_table([1], [2])
    with pytest.raises(IndexError):
        table.row(5)


def test_missing_column_data_rejected():
    with pytest.raises(ValueError):
        Table(SCHEMA, {"K": np.array([1], dtype=np.uint32)}, 1)


def test_column_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Table(SCHEMA, {
            "K": np.array([1], dtype=np.uint32),
            "V": np.array([1, 2], dtype=np.int64),
        }, 1)


def test_where_predicate():
    table = make_table([1, 2, 3, 4], [10, 20, 30, 40])
    out = table.where(lambda row: row["V"] > 15)
    assert out.column("K").tolist() == [2, 3, 4]


def test_where_mask():
    table = make_table([1, 2, 3], [10, 20, 30])
    out = table.where_mask([True, False, True])
    assert out.column("V").tolist() == [10, 30]


def test_where_mask_length_check():
    with pytest.raises(ValueError):
        make_table([1], [2]).where_mask([True, False])


def test_limit_offset_count():
    table = make_table(list(range(10)), list(range(10)))
    out = table.limit(3, offset=4)
    assert out.column("K").tolist() == [4, 5, 6]


def test_limit_beyond_end():
    table = make_table([1, 2], [3, 4])
    assert table.limit(10, offset=1).num_rows == 1
    assert table.limit(10, offset=5).num_rows == 0


def test_concat():
    a = make_table([1], [10])
    b = make_table([2], [20])
    out = a.concat(b)
    assert out.column("K").tolist() == [1, 2]


def test_concat_schema_mismatch():
    a = make_table([1], [10])
    b = Table.from_columns(Schema.of(X="uint32", V="int64"), X=[1], V=[1])
    with pytest.raises(ValueError):
        a.concat(b)


def test_pos_explode():
    schema = Schema.of(START="uint32", ARR="uint8[]")
    table = Table.from_columns(schema, START=[100, 200], ARR=[[1, 2, 3], [4]])
    out = table.pos_explode("ARR", "START")
    assert out.column("POS").tolist() == [100, 101, 102, 200]
    assert out.column("VAL").tolist() == [1, 2, 3, 4]


def test_pos_explode_requires_array_column():
    with pytest.raises(ValueError):
        make_table([1], [1]).pos_explode("K", "V")


def test_rows_iteration():
    table = make_table([1, 2], [10, 20])
    assert [row["V"] for row in table.rows()] == [10, 20]
    assert len(table) == 2
