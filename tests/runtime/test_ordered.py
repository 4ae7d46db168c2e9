"""Ordered range indexes: exact probes, regimes, and the lazy-rebuild contract.

The probe contract is bit-identity with the interpreter's scan: same value,
same type, for every ``> >= < <=`` cutoff, across inserts, updates, and
deletions to zero.  These tests drive :meth:`IndexedTable.range_sum` (the
only entry point the evaluator and generated code use) and cross-check every
answer against a naive in-order scan that replicates the evaluator's
aggregation chain literally.
"""

import random
from fractions import Fraction

import pytest

from repro.core.values import comparison_holds, is_zero, normalize_number
from repro.errors import RuntimeEngineError
from repro.runtime.maps import IndexedTable

OPS = (">", ">=", "<", "<=")


def naive_chain(table, column, op, cutoff):
    """The interpreter's AggSum chain over a primary-dict scan, verbatim."""
    position = table.columns.index(column)
    total = 0
    for key, value in table._data.items():
        if comparison_holds(key[position], op, cutoff):
            candidate = total + value
            total = 0 if is_zero(candidate) else normalize_number(candidate)
    return total


def naive_plain(table, column, op, cutoff):
    """The interpreter's Exists total-multiplicity summation, verbatim."""
    position = table.columns.index(column)
    total = 0
    for key, value in table._data.items():
        if comparison_holds(key[position], op, cutoff):
            total = total + value
    return normalize_number(total)


def assert_probe_matches(table, column, cutoffs):
    for cutoff in cutoffs:
        for op in OPS:
            want = naive_chain(table, column, op, cutoff)
            got = table.range_sum(column, op, cutoff)
            assert got == want and type(got) is type(want), (op, cutoff, got, want)
            want = naive_plain(table, column, op, cutoff)
            got = table.range_sum(column, op, cutoff, False)
            assert got == want and type(got) is type(want), (op, cutoff, got, want)


def test_duplicate_sort_keys_aggregate_per_column_value():
    # Multi-column keys: many rows share one price; the index must sum them.
    table = IndexedTable(("price", "oid"))
    for oid in range(6):
        table.add((10, oid), 3)
    for oid in range(4):
        table.add((20, oid), 5)
    assert table.range_sum("price", ">", 10) == 20
    assert table.range_sum("price", ">=", 10) == 38
    assert table.range_sum("price", "<", 20) == 18
    assert table.range_sum("price", "<=", 5) == 0
    index = table.range_index("price")
    assert index.stats()["keys"] == 2
    assert index.stats()["rows"] == 10


def test_updates_crossing_the_probe_boundary():
    table = IndexedTable(("price",))
    table.add((10,), 4)
    table.add((30,), 6)
    assert table.range_sum("price", ">", 20) == 6
    # Move weight across the cutoff: delete at 30, add at 15.
    table.add((30,), -6)
    table.add((15,), 6)
    assert table.range_sum("price", ">", 20) == 0
    assert table.range_sum("price", ">", 10) == 6
    assert table.range_sum("price", "<=", 20) == 10
    # Update in place (same key, new value) must take the point-update path.
    table.add((15,), 1)
    assert table.range_sum("price", ">", 10) == 7


def test_deletion_to_zero_removes_the_bucket():
    table = IndexedTable(("price", "oid"))
    table.add((10, 1), 2)
    table.add((10, 2), 3)
    assert table.range_sum("price", ">=", 10) == 5
    table.add((10, 1), -2)
    assert table.range_sum("price", ">=", 10) == 3
    table.add((10, 2), -3)
    assert table.range_sum("price", ">=", 10) == 0
    index = table.range_index("price")
    # Force the pending rebuild (a probe does it) and check the key is gone.
    table.range_sum("price", ">", 0)
    assert index.stats()["keys"] == 0
    assert len(table) == 0


def test_fraction_values_stay_exact_and_probed():
    table = IndexedTable(("k",))
    table.add((1,), Fraction(1, 3))
    table.add((2,), Fraction(2, 3))
    table.add((3,), 7)
    got = table.range_sum("k", ">", 0)
    assert got == 8 and type(got) is int  # integral sums normalize to int
    got = table.range_sum("k", "<=", 1)
    assert got == Fraction(1, 3) and type(got) is Fraction
    assert table.range_index("k").stats()["exact"] is True
    assert table.range_index("k").stats()["scan_fallbacks"] == 0


def test_float_values_force_the_scan_fallback_and_recover():
    table = IndexedTable(("k",))
    table.add((1,), 2)
    table.add((2,), 0.5)
    table.add((3,), 4)
    assert_probe_matches(table, "k", (0, 1, 2, 3, 4))
    stats = table.range_index("k").stats()
    assert stats["exact"] is False and stats["inexact_rows"] == 1
    assert stats["scan_fallbacks"] > 0
    # Remove the float: the exact regime (and the probe path) returns.
    table.add((2,), -0.5)
    assert table.range_sum("k", ">", 0) == 6
    stats = table.range_index("k").stats()
    assert stats["exact"] is True and stats["inexact_rows"] == 0
    before = stats["scan_fallbacks"]
    assert_probe_matches(table, "k", (0, 1, 2, 3, 4))
    assert table.range_index("k").stats()["scan_fallbacks"] == before


def test_mixed_type_keys_break_the_index_but_scans_still_answer():
    table = IndexedTable(("k",))
    table.add(("a",), 1)
    table.add((2,), 1)
    # Ordering str against int raises exactly like the interpreter's compare.
    with pytest.raises(TypeError):
        table.range_sum("k", ">", 1)
    assert table.range_index("k").stats()["broken"] is True
    # Equality-free string tables order fine.
    strings = IndexedTable(("k",))
    for key, value in (("a", 1), ("b", 2), ("c", 4)):
        strings.add((key,), value)
    assert strings.range_sum("k", ">", "a") == 6
    assert strings.range_sum("k", "<=", "b") == 3


def test_nan_keys_disable_the_index_but_scans_stay_correct():
    # NaN compares False to everything, so sorted()/bisect would silently
    # mis-position it; the index must stand down instead of answering wrong.
    nan = float("nan")
    table = IndexedTable(("k",))
    table.add((nan,), 5)
    table.add((2.0,), 3)
    assert_probe_matches(table, "k", (1.5, 2.0, 3.0))
    assert table.range_sum("k", ">", 1.5) == 3
    assert table.range_index("k").stats()["broken"] is True
    # NaN arriving through incremental maintenance (index already live).
    table2 = IndexedTable(("k",))
    table2.add((1.0,), 2)
    assert table2.range_sum("k", ">", 0) == 2
    table2.add((nan,), 7)
    assert_probe_matches(table2, "k", (0.5, 1.0))
    assert table2.range_index("k").stats()["broken"] is True


def test_nan_cutoffs_fall_back_to_the_scan():
    table = IndexedTable(("k",))
    table.add((1,), 2)
    table.add((2,), 3)
    nan = float("nan")
    for op in OPS:
        got = table.range_sum("k", op, nan)
        assert got == 0 and type(got) is int, (op, got)
    assert table.range_index("k").stats()["broken"] is False


def test_non_allowlisted_value_types_count_as_inexact():
    # Decimal addition is context-rounded, hence order-sensitive: the index
    # must treat it like floats and leave the in-order scan in charge.
    from decimal import Decimal

    table = IndexedTable(("k",))
    table.add((1,), Decimal("2.5"))
    table.add((2,), 3)
    got = table.range_sum("k", ">=", 1)
    assert got == Decimal("5.5")
    stats = table.range_index("k").stats()
    assert stats["exact"] is False and stats["inexact_rows"] == 1


def test_unknown_column_raises():
    table = IndexedTable(("a", "b"))
    with pytest.raises(RuntimeEngineError):
        table.range_index("nope")


def test_clear_and_replace_drop_indexes_lazily():
    table = IndexedTable(("k",))
    table.add((1,), 5)
    table.add((2,), 7)
    assert table.range_sum("k", ">", 1) == 7
    first = table.range_index("k")
    table.replace([((1,), 3), ((3,), 4)])
    # The index object was dropped with the contents; the next probe builds a
    # fresh one from the new data.
    assert table.range_index("k") is not first
    assert table.range_sum("k", ">", 1) == 4
    table.clear()
    assert table.range_sum("k", ">", 0) == 0
    assert table.range_index("k").stats()["keys"] == 0


def test_set_maintains_the_index():
    table = IndexedTable(("k",))
    table.add((1,), 5)
    assert table.range_sum("k", ">=", 1) == 5
    table.set((1,), 9)
    assert table.range_sum("k", ">=", 1) == 9
    table.set((2,), 4)
    assert table.range_sum("k", ">", 1) == 4
    table.set((1,), 0)  # set-to-zero removes
    assert table.range_sum("k", ">=", 1) == 4


def test_random_stream_probe_equals_naive_scan():
    # Inserts, updates and deletes over duplicate keys; every few events probe
    # all four operators against the naive chain and plain scans.
    rng = random.Random(1234)
    table = IndexedTable(("price", "oid"))
    applied = []
    for step in range(3000):
        if applied and rng.random() < 0.45:
            # Retract an earlier delta (deletion / partial execution).
            key, delta = applied.pop(rng.randrange(len(applied)))
            table.add(key, -delta)
        else:
            key = (rng.randint(-15, 15), rng.randint(0, 400))
            delta = rng.choice((-7, -2, 1, 3, 11))
            table.add(key, delta)
            applied.append((key, delta))
        if step % 11 == 0:
            cutoff = rng.randint(-17, 17)
            assert_probe_matches(table, "price", (cutoff,))
    stats = table.range_index("price").stats()
    assert stats["probes"] > 0 and stats["scan_fallbacks"] == 0


def test_stats_flow_through_table_and_store():
    from repro.runtime.maps import MapStore

    store = MapStore()
    table = store.declare("M", ("price",))
    table.add((1,), 2)
    table.range_sum("price", ">", 0)
    stats = store.stats()["M"]
    assert "ordered_indexes" in stats
    assert stats["ordered_indexes"]["price"]["probes"] == 1
