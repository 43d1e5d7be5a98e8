"""Unit tests for :mod:`repro.dataset.schema` and :mod:`repro.dataset.table`."""

import pytest

from repro.dataset.schema import Schema
from repro.dataset.table import Cell, Row, Table


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
def test_schema_rejects_empty():
    with pytest.raises(ValueError):
        Schema([])


def test_schema_rejects_duplicates():
    with pytest.raises(ValueError):
        Schema(["A", "A"])


def test_schema_position_and_contains():
    schema = Schema(["A", "B", "C"])
    assert schema.position("B") == 1
    assert "C" in schema
    assert "Z" not in schema
    assert schema.arity == 3


def test_schema_validate_attributes():
    schema = Schema(["A", "B"])
    schema.validate_attributes(["A"])
    with pytest.raises(KeyError):
        schema.validate_attributes(["Z"])


def test_schema_project_and_equality():
    schema = Schema(["A", "B", "C"])
    assert schema.project(["C", "A"]).attributes == ["C", "A"]
    assert Schema(["A", "B"]) == Schema(["A", "B"])
    assert Schema(["A", "B"]) != Schema(["B", "A"])


# ----------------------------------------------------------------------
# Row
# ----------------------------------------------------------------------
def test_row_access_and_set():
    row = Row(0, {"A": "x", "B": "y"})
    assert row["A"] == "x"
    row.set("A", "z")
    assert row["A"] == "z"
    with pytest.raises(KeyError):
        row.set("C", "nope")


def test_row_values_for_and_equality():
    row = Row(0, {"A": "x", "B": "y"})
    assert row.values_for(["B", "A"]) == ("y", "x")
    assert row == Row(5, {"A": "x", "B": "y"})  # equality ignores tid


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------
def make_table():
    return Table.from_records(
        [
            {"A": "1", "B": "x"},
            {"A": "2", "B": "y"},
            {"A": "2", "B": "y"},
        ],
        attributes=["A", "B"],
    )


def test_from_records_assigns_sequential_tids():
    table = make_table()
    assert table.tids == [0, 1, 2]
    assert len(table) == 3


def test_append_rejects_missing_and_extra_attributes():
    table = Table(Schema(["A", "B"]))
    with pytest.raises(KeyError):
        table.append({"A": "1"})
    with pytest.raises(KeyError):
        table.append({"A": "1", "B": "2", "C": "3"})


def test_append_rejects_duplicate_tid():
    table = Table(Schema(["A"]))
    table.append({"A": "1"}, tid=7)
    with pytest.raises(ValueError):
        table.append({"A": "2"}, tid=7)


def test_value_and_set_value():
    table = make_table()
    assert table.value(0, "A") == "1"
    table.set_value(0, "A", "9")
    assert table.value(0, "A") == "9"
    with pytest.raises(KeyError):
        table.set_value(0, "Z", "9")


def test_cell_helpers():
    table = make_table()
    cell = Cell(1, "B")
    assert table.cell_value(cell) == "y"
    table.set_cell(cell, "q")
    assert table.cell_value(cell) == "q"
    assert table.cell_count == 6
    assert len(list(table.cells())) == 6


def test_column_and_domain():
    table = make_table()
    assert table.column("A") == ["1", "2", "2"]
    assert table.domain("A").count("2") == 2
    assert set(table.domains()) == {"A", "B"}


def test_copy_is_deep_and_preserves_tids():
    table = make_table()
    clone = table.copy()
    clone.set_value(0, "A", "changed")
    assert table.value(0, "A") == "1"
    assert clone.tids == table.tids


def test_copy_after_removals_continues_from_the_largest_tid():
    table = make_table()
    table.append({"A": "3", "B": "w"}, tid=9)
    table.remove(9)
    table.remove(0)
    clone = table.copy()
    assert clone.tids == [1, 2]
    assert clone.next_tid == 3
    assert clone.append({"A": "4", "B": "v"}).tid == 3
    assert table.copy().subset([]).next_tid == 0


def test_copied_and_subset_rows_are_independent_of_the_source():
    table = make_table()
    clone, part = table.copy(), table.subset([1])
    clone.row(1).set("B", "changed")
    part.set_value(1, "A", "changed")
    assert table.row(1).as_dict() == {"A": "2", "B": "y"}
    assert clone.value(1, "A") == "2" and part.value(1, "B") == "y"


def test_subset_rejects_duplicate_and_unknown_tids():
    table = make_table()
    with pytest.raises(ValueError, match="1"):
        table.subset([1, 2, 1])
    with pytest.raises(KeyError):
        table.subset([0, 7])


def test_remove_and_subset_and_filter():
    table = make_table()
    table.remove(1)
    assert table.tids == [0, 2]
    subset = table.subset([2])
    assert subset.tids == [2]
    filtered = table.filter(lambda row: row["A"] == "2")
    assert filtered.tids == [2]


def test_equals_and_diff_cells():
    table = make_table()
    other = table.copy()
    assert table.equals(other)
    other.set_value(2, "B", "z")
    assert not table.equals(other)
    assert table.diff_cells(other) == [Cell(2, "B")]


def test_diff_cells_requires_same_tids():
    table = make_table()
    other = table.copy()
    other.remove(0)
    with pytest.raises(ValueError):
        table.diff_cells(other)


def test_duplicate_groups():
    table = make_table()
    groups = table.duplicate_groups()
    assert groups == [[1, 2]]


def test_projection_and_records():
    table = make_table()
    assert table.projection(["B"]) == [("x",), ("y",), ("y",)]
    records = table.records()
    assert records[0] == {"A": "1", "B": "x"}


def test_pretty_string_contains_all_rows():
    text = make_table().to_pretty_string()
    assert "TID" in text
    assert text.count("\n") >= 4
