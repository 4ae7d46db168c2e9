"""Tests for the indexed map storage, the map store and view caches."""

import pytest

from repro.core.rows import Row
from repro.errors import RuntimeEngineError
from repro.runtime.database import Database
from repro.runtime.interpreter import RuntimeSource
from repro.runtime.maps import IndexedTable, MapStore, ViewCache


def test_add_and_get_by_sequence_and_row():
    table = IndexedTable(("k", "v"))
    table.add((1, "x"), 2)
    assert table.get((1, "x")) == 2
    assert table.get(Row({"k": 1, "v": "x"})) == 2
    assert table.get({"k": 1, "v": "x"}) == 2
    assert table.get((9, "zz")) == 0


def test_zero_entries_are_removed():
    table = IndexedTable(("k",))
    table.add((1,), 5)
    table.add((1,), -5)
    assert len(table) == 0
    assert not table


def test_add_arity_mismatch_raises():
    table = IndexedTable(("k", "v"))
    with pytest.raises(RuntimeEngineError):
        table.add((1,), 1)


def test_set_overwrites_and_removes_zero():
    table = IndexedTable(("k",))
    table.set((1,), 10)
    assert table.get((1,)) == 10
    table.set((1,), 0)
    assert len(table) == 0


def test_replace_swaps_contents():
    table = IndexedTable(("k",))
    table.add((1,), 1)
    table.replace([((2,), 5), ((3,), 0), (Row({"k": 4}), 2)])
    assert table.get((1,)) == 0
    assert table.get((2,)) == 5
    assert table.get((3,)) == 0
    assert table.get((4,)) == 2


def test_full_scan_and_fully_bound_scan():
    table = IndexedTable(("a", "b"))
    table.add((1, 1), 1)
    table.add((1, 2), 2)
    assert len(list(table.scan({}))) == 2
    assert list(table.scan({"a": 1, "b": 2}))[0][1] == 2
    assert list(table.scan({"a": 9, "b": 9})) == []


def test_partially_bound_scan_uses_secondary_index():
    table = IndexedTable(("a", "b"))
    for a in range(5):
        for b in range(4):
            table.add((a, b), a * 10 + b)
    results = dict(table.scan({"a": 3}))
    assert len(results) == 4
    assert all(key[0] == 3 for key in results)
    # The index must stay consistent under later updates.
    table.add((3, 0), -(30))
    assert len(dict(table.scan({"a": 3}))) == 3
    table.add((3, 9), 1)
    assert len(dict(table.scan({"a": 3}))) == 4


def test_scan_on_unknown_column_raises():
    table = IndexedTable(("a",))
    table.add((1,), 1)
    with pytest.raises(RuntimeEngineError):
        list(table.scan({"zzz": 1}))


def test_to_gmr_snapshot():
    table = IndexedTable(("a",))
    table.add((1,), 2)
    snapshot = table.to_gmr()
    table.add((1,), 1)
    assert snapshot[{"a": 1}] == 2  # snapshots are independent of later updates


def test_clear_and_memory_accounting():
    table = IndexedTable(("a",))
    table.add((1,), 1)
    assert table.memory_bytes() > 0
    table.clear()
    assert len(table) == 0


def test_mapstore_declare_is_idempotent():
    store = MapStore()
    first = store.declare("M", ("k",))
    second = store.declare("M", ("k",))
    assert first is second
    assert "M" in store and "X" not in store
    assert store.names() == ("M",)


def test_mapstore_lookup_unknown_map_raises():
    with pytest.raises(RuntimeEngineError):
        MapStore().table("missing")


def test_mapstore_datasource_protocol():
    """The evaluator's scans yield Rows, directly and through RuntimeSource."""
    store = MapStore()
    store.declare("M", ("k", "x"))
    store.table("M").add((1, "a"), 3)
    assert store.map_columns("M") == ("k", "x")
    assert dict(store.scan_map("M", {"k": 1}))[Row({"k": 1, "x": "a"})] == 3
    source = RuntimeSource(Database(), store)
    assert source.map_columns("M") == ("k", "x")
    scanned = list(source.scan_map("M", {"k": 1}))
    assert scanned == [(Row({"k": 1, "x": "a"}), 3)]
    assert all(type(row) is Row for row, _ in scanned)
    assert list(store.table("M").scan({"k": 1})) == [((1, "a"), 3)]
    assert store.sizes() == {"M": 1}
    assert store.memory_bytes() > 0


def test_keys_are_tuples_in_declared_column_order():
    # Columns deliberately not name-sorted: keys follow the declaration.
    table = IndexedTable(("z", "a", "m"))
    table.add((1, "x", 2.5), 3)
    table.add(Row({"a": "y", "m": 0, "z": 2}), 1)
    table.add({"m": 1, "z": 3, "a": "w"}, 2)
    assert list(table.primary) == [(1, "x", 2.5), (2, "y", 0), (3, "w", 1)]
    assert all(type(key) is tuple for key, _ in table.items())
    assert table.get(Row({"z": 1, "a": "x", "m": 2.5})) == 3
    with pytest.raises(RuntimeEngineError):
        table.add({"z": 1, "a": "x"}, 1)  # a mapping missing a column
    with pytest.raises(RuntimeEngineError):
        table.add({"z": 1, "a": "x", "m": 0, "q": 9}, 1)  # an extra column
    # to_gmr is the Row-keyed snapshot.
    assert table.to_gmr()[{"z": 2, "a": "y", "m": 0}] == 1


def test_projected_index_keys_match_the_probe_shape():
    table = IndexedTable(("c", "b", "a"))
    table.add((1, 2, 3), 1)
    table.add((1, 5, 3), 2)
    # One column: the bare value, on the write path and the probe path alike.
    one = table.index_for(frozenset(("b",)))
    assert set(one) == {2, 5}
    table.add((4, 2, 0), 7)
    assert one[2] == {(1, 2, 3): 1, (4, 2, 0): 7}
    # Several columns: the tuple of the projected values in column order.
    two = table.index_for(frozenset(("a", "c")))
    assert two[(1, 3)] == {(1, 2, 3): 1, (1, 5, 3): 2}
    assert dict(table.scan({"a": 3, "c": 1})) == two[(1, 3)]
    assert dict(table.scan({"b": 2})) == one[2]


def test_index_buckets_keep_insertion_order_across_delete_and_reinsert():
    table = IndexedTable(("g", "k"))
    for k in range(4):
        table.add((0, k), k + 1)
    bucket = table.index_for(frozenset(("g",)))
    table.add((0, 1), 5)  # an update stays in place
    assert list(bucket[0]) == [(0, 0), (0, 1), (0, 2), (0, 3)]
    table.add((0, 1), -7)  # drops to zero: removed
    table.add((0, 1), 9)  # re-inserted: appended, as in the primary dict
    assert list(bucket[0]) == [(0, 0), (0, 2), (0, 3), (0, 1)]
    assert list(bucket[0]) == list(table.primary)
    for k in range(4):
        table.add((0, k), -table.get((0, k)))
    assert 0 not in bucket  # empty buckets are pruned


def test_view_cache_lookup_computes_and_caches():
    calls = []

    def compute(bindings):
        calls.append(dict(bindings))
        return [(Row({"v": bindings["p"] * 10}), 1)]

    cache = ViewCache(("p",), ("v",), compute)
    first = cache.lookup({"p": 2})
    again = cache.lookup({"p": 2})
    other = cache.lookup({"p": 3})
    assert first is again
    assert first.get({"v": 20}) == 1
    assert other.get({"v": 30}) == 1
    assert cache.hits == 1 and cache.misses == 2
    assert len(calls) == 2
    assert len(cache) == 2
    assert cache.memory_bytes() > 0


def test_view_cache_update_all_refreshes_copies_without_invalidating():
    cache = ViewCache(("p",), ("v",), lambda bindings: [(Row({"v": 0}), 1)])
    cache.lookup({"p": 1})
    cache.lookup({"p": 2})

    def updater(bindings, table):
        table.add((bindings["p"],), 1)

    cache.update_all(updater)
    assert cache.lookup({"p": 1}).get((1,)) == 1
    assert cache.hits == 1  # the lookup after update_all is still a cache hit


def test_view_cache_missing_input_variable_raises():
    cache = ViewCache(("p",), ("v",), lambda bindings: [])
    with pytest.raises(RuntimeEngineError):
        cache.lookup({"other": 1})


def test_primary_and_index_for_expose_the_probe_surfaces():
    """The codegen probe surface: primary dict and lazily built indexes."""
    table = IndexedTable(("a", "b"))
    table.add((1, 10), 2)
    table.add((1, 20), 3)
    table.add((2, 10), 5)
    assert table.primary[(1, 10)] == 2
    index = table.index_for(frozenset(("a",)))
    bucket = index.get(1)  # a one-column projection keys by the bare value
    assert bucket == {(1, 10): 2, (1, 20): 3}
    # Indexes stay maintained through later writes.
    table.add((1, 30), 7)
    assert len(index[1]) == 3
    # clear() replaces the primary dict wholesale, so re-read the property.
    table.clear()
    assert table.primary == {}
