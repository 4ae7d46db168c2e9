"""Tests for the Row tuple type."""

import pytest
from hypothesis import given, strategies as st

from repro.core.rows import EMPTY_ROW, Row, merge_rows, rows_consistent


def test_row_from_dict_and_pairs_are_equal():
    assert Row({"a": 1, "b": 2}) == Row([("b", 2), ("a", 1)])


def test_row_equality_is_order_independent():
    assert Row({"x": 1, "y": 2}) == Row({"y": 2, "x": 1})
    assert hash(Row({"x": 1, "y": 2})) == hash(Row({"y": 2, "x": 1}))


def test_row_duplicate_column_rejected():
    with pytest.raises(ValueError):
        Row([("a", 1), ("a", 2)])


def test_row_mapping_protocol():
    row = Row({"a": 1, "b": "text"})
    assert row["a"] == 1
    assert row.get("missing") is None
    assert "b" in row and "c" not in row
    assert len(row) == 2
    assert sorted(row) == ["a", "b"]


def test_row_getitem_missing_raises():
    with pytest.raises(KeyError):
        Row({"a": 1})["b"]


def test_empty_row_singleton_behaviour():
    assert len(EMPTY_ROW) == 0
    assert EMPTY_ROW == Row()
    assert EMPTY_ROW.columns == frozenset()


def test_project_keeps_only_requested_columns():
    row = Row({"a": 1, "b": 2, "c": 3})
    assert row.project(["a", "c", "zzz"]) == Row({"a": 1, "c": 3})


def test_drop_removes_columns():
    row = Row({"a": 1, "b": 2})
    assert row.drop(["a"]) == Row({"b": 2})


def test_rename_columns():
    row = Row({"a": 1, "b": 2})
    assert row.rename({"a": "x"}) == Row({"x": 1, "b": 2})


def test_extend_consistent():
    left = Row({"a": 1})
    right = {"b": 2, "a": 1}
    assert left.extend(right) == Row({"a": 1, "b": 2})


def test_extend_inconsistent_raises():
    with pytest.raises(ValueError):
        Row({"a": 1}).extend({"a": 2})


def test_consistent_with():
    row = Row({"a": 1, "b": 2})
    assert row.consistent_with({"a": 1, "c": 9})
    assert not row.consistent_with({"a": 3})


def test_rows_consistent_helper():
    assert rows_consistent({"a": 1}, {"b": 2})
    assert not rows_consistent({"a": 1}, {"a": 2})


def test_merge_rows_is_natural_join_of_singletons():
    merged = merge_rows(Row({"a": 1}), Row({"b": 2}))
    assert merged == Row({"a": 1, "b": 2})


def test_row_repr_is_stable():
    assert repr(Row({"b": 2, "a": 1})) == "<a: 1, b: 2>"


def test_row_equality_against_plain_mapping():
    assert Row({"a": 1}) == {"a": 1}
    assert Row({"a": 1}) != {"a": 2}


@given(st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), max_size=5))
def test_row_roundtrips_through_dict(mapping):
    assert dict(Row(mapping)) == mapping


@given(
    st.dictionaries(st.sampled_from("abcde"), st.integers(), max_size=4),
    st.dictionaries(st.sampled_from("abcde"), st.integers(), max_size=4),
)
def test_extend_matches_consistency_check(left, right):
    row = Row(left)
    if row.consistent_with(right):
        merged = row.extend(right)
        assert dict(merged) == {**left, **right}
    else:
        with pytest.raises(ValueError):
            row.extend(right)


@given(st.dictionaries(st.sampled_from("abcdef"), st.integers(), max_size=6),
       st.sets(st.sampled_from("abcdef"), max_size=6))
def test_project_then_drop_partition(mapping, columns):
    row = Row(mapping)
    projected = row.project(columns)
    dropped = row.drop(columns)
    assert set(projected.columns) | set(dropped.columns) == row.columns
    assert not set(projected.columns) & set(dropped.columns)


@pytest.mark.parametrize("columns", [(), ("k",), ("a", "b"), ("z", "a", "m")])
def test_factory_matches_the_checked_constructor(columns):
    values = tuple(range(len(columns)))
    fast = Row.factory(columns)(values)
    slow = Row(dict(zip(columns, values)))
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert fast.items() == slow.items() == tuple(sorted(zip(columns, values)))
    assert dict(fast) == dict(zip(columns, values))


def test_factory_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        Row.factory(("a", "b", "a"))
