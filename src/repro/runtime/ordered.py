"""Ordered range indexes over one column of an :class:`IndexedTable`.

The paper's generated runtimes store views in multi-indexed containers; for
the inequality-correlated nested aggregates of the financial workload
(``SUM(volume) WHERE price > p``, Appendix A.2) the probe that matters is an
*ordered* one: the sum of a map's values over every entry whose key column
falls on one side of a cutoff.  Evaluating that by scanning is O(n) per
candidate per event and is exactly what made VWAP/MST/PSP four orders of
magnitude slower than the compiled TPC-H views.

:class:`OrderedRangeIndex` maintains, per distinct value of one key column,
the exact sum of the table values sharing that column value, plus a sorted
key list with running prefix sums.  A probe is then a ``bisect`` and a
subtraction: O(log n) once the arrays are fresh, O(k) to refresh them after a
batch of updates (k = distinct column values).  Maintenance is driven by the
owning table's add/set hooks; ``clear``/``replace``/``restore_state`` simply
drop the index and it is rebuilt lazily on the next probe, mirroring the
lazy-rebuild contract of the hash secondary indexes.

Bit-identity contract
---------------------
The interpreter computes these sums by chaining GMR additions in primary-dict
order, so a reordered summation is only permissible when it provably yields
the same value *and type*.  The index therefore serves probes only in the
**exact regime**: while every indexed value is an ``int`` or
``fractions.Fraction`` (bools are normalized to ints before storage), where
addition is associative/commutative exactly and the final
``normalize_number`` makes the type canonical.  The moment an inexact value
(a ``float``, or anything outside the int/Fraction allowlist, e.g. a
``Decimal`` whose context rounding is order-sensitive) enters the table the
index stands down (``probe`` returns ``None``) and the caller falls back to
an exact in-order scan; when the last such value leaves, the index rebuilds
itself from the table on the next probe.  Unorderable key columns — mixed
types, or NaN, which ``sorted``/``bisect`` silently mis-position instead of
raising — permanently break the index, with the same scan fallback.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Any, Iterable, Tuple

from repro.core.values import is_zero, normalize_number

#: op -> (use bisect_right, sum the suffix).  ``key > c`` is the suffix after
#: bisect_right; ``key <= c`` the matching prefix; analogously for >= / <.
_PROBE_OPS = {
    ">": (True, True),
    ">=": (False, True),
    "<": (False, False),
    "<=": (True, False),
}

#: Value types whose addition is exact (reordering-safe).  ``bool`` never
#: reaches storage (``normalize_number`` collapses it to ``int``).
_EXACT_TYPES = (int, Fraction)


class OrderedRangeIndex:
    """Per-key-column aggregate sums in sorted key order, with lazy arrays.

    ``column`` is the indexed column name; ``key_pos`` its position in the
    owning table's declared ``columns`` (so in every key tuple).  The owner calls :meth:`change` from its mutation hooks
    and :meth:`rebuild` when :attr:`wants_rebuild` says the totals must be
    recomputed from the table contents.
    """

    __slots__ = (
        "column",
        "key_pos",
        "_totals",
        "_counts",
        "_inexact_rows",
        "_needs_rebuild",
        "_keys_stale",
        "_prefix_stale",
        "_keys",
        "_prefix",
        "_broken",
        "_array_view",
        "probes",
        "scan_fallbacks",
        "rebuilds",
        "refreshes",
    )

    def __init__(self, column: str, key_pos: int) -> None:
        self.column = column
        self.key_pos = key_pos
        self._totals: dict[Any, Any] = {}
        self._counts: dict[Any, int] = {}
        self._inexact_rows = 0
        self._needs_rebuild = True  # totals come from the table, lazily
        self._keys_stale = True
        self._prefix_stale = True
        self._keys: list[Any] = []
        self._prefix: list[Any] = [0]
        self._broken = False
        # ndarray view cache owned by repro.codegen.vector: a
        # ``((rebuilds, refreshes), payload)`` pair, keyed on the refresh
        # counters so any totals change invalidates it.
        self._array_view: tuple | None = None
        self.probes = 0
        self.scan_fallbacks = 0
        self.rebuilds = 0
        self.refreshes = 0

    # -- state queries -------------------------------------------------------
    @property
    def broken(self) -> bool:
        """True when the key column proved unorderable (index disabled)."""
        return self._broken

    @property
    def exact(self) -> bool:
        """True while every indexed value supports exact (reorderable) sums."""
        return self._inexact_rows == 0 and not self._broken

    @property
    def wants_rebuild(self) -> bool:
        """True when the owner should feed the table back through :meth:`rebuild`."""
        return self._needs_rebuild and self._inexact_rows == 0 and not self._broken

    def _break(self) -> None:
        self._broken = True
        self._totals = {}
        self._counts = {}
        self._keys = []
        self._prefix = [0]

    # -- maintenance ---------------------------------------------------------
    def change(self, key: Any, old: Any, new: Any) -> None:
        """Record that the table value at ``key`` went from ``old`` to ``new``.

        ``old``/``new`` are the *stored* values (``None`` when the entry is
        absent on that side).  Exact-regime updates keep the per-key totals
        incremental; anything involving an inexact value defers to a full
        rebuild.
        """
        if self._broken:
            return
        old_inexact = old is not None and not isinstance(old, _EXACT_TYPES)
        new_inexact = new is not None and not isinstance(new, _EXACT_TYPES)
        if old_inexact or new_inexact:
            # The inexact-row counter stays accurate even while a rebuild is
            # pending, so the index knows when the exact regime returns.
            self._inexact_rows += new_inexact - old_inexact
            self._needs_rebuild = True
            return
        if self._needs_rebuild or self._inexact_rows:
            return
        count_delta = (new is not None) - (old is not None)
        if old is None:
            if new is None:
                return
            delta = new
        elif new is None:
            delta = -old
        else:
            delta = new - old
        count = self._counts.get(key)
        if count is None:
            if new is None:
                return
            if key != key:  # NaN orders silently wrong; disable the index
                self._break()
                return
            self._counts[key] = 1
            self._totals[key] = new
            self._keys_stale = True
            self._prefix_stale = True
            return
        count += count_delta
        if count <= 0:
            del self._counts[key]
            del self._totals[key]
            self._keys_stale = True
            self._prefix_stale = True
            return
        self._counts[key] = count
        self._totals[key] = self._totals[key] + delta
        self._prefix_stale = True

    def rebuild(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Recompute totals from the table's ``(key tuple, value)`` entries."""
        pos = self.key_pos
        totals: dict[Any, Any] = {}
        counts: dict[Any, int] = {}
        inexact = 0
        for row, value in items:
            key = row[pos]
            if not isinstance(value, _EXACT_TYPES):
                inexact += 1
            if key in counts:
                counts[key] += 1
                totals[key] = totals[key] + value
            else:
                if key != key:  # NaN key: bisect would mis-position it
                    self._break()
                    return
                counts[key] = 1
                totals[key] = value
        self._totals = totals
        self._counts = counts
        self._inexact_rows = inexact
        self._keys_stale = True
        self._prefix_stale = True
        self.rebuilds += 1
        # With inexact values present the totals are not probe-safe; leave
        # the rebuild flag up so the next all-exact transition rebuilds.
        self._needs_rebuild = inexact > 0

    # -- probing -------------------------------------------------------------
    def _refresh_arrays(self) -> bool:
        if self._keys_stale:
            try:
                self._keys = sorted(self._totals)
            except TypeError:
                self._break()
                return False
            self._keys_stale = False
            self._prefix_stale = True
        if self._prefix_stale:
            totals = self._totals
            prefix = [0] * (len(self._keys) + 1)
            running: Any = 0
            for index, key in enumerate(self._keys):
                running = running + totals[key]
                prefix[index + 1] = running
            self._prefix = prefix
            self._prefix_stale = False
            self.refreshes += 1
        return True

    def probe(self, op: str, cutoff: Any) -> Any:
        """``sum(value) where key op cutoff`` — or ``None`` to demand a scan.

        Only answers in the exact regime with fresh totals; the result is
        passed through the same final zero-drop / ``normalize_number`` as the
        interpreter's aggregation chain, so it is bit-identical (value *and*
        type).  Returns ``None`` when the index is broken, a rebuild is
        pending, inexact values are present, the operator is outside the
        range fragment, or the cutoff does not order against the keys (the
        caller's scan then raises exactly as the interpreter would).
        """
        if self._broken or self._inexact_rows or self._needs_rebuild:
            return None
        spec = _PROBE_OPS.get(op)
        if spec is None:
            return None
        if cutoff != cutoff:  # NaN compares False to everything: scan instead
            return None
        if not self._refresh_arrays():
            return None
        use_right, suffix = spec
        try:
            if use_right:
                index = bisect_right(self._keys, cutoff)
            else:
                index = bisect_left(self._keys, cutoff)
        except TypeError:
            return None
        prefix = self._prefix
        if suffix:
            total = prefix[-1] - prefix[index]
        else:
            total = prefix[index]
        self.probes += 1
        return 0 if is_zero(total) else normalize_number(total)

    # -- accounting ----------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Key/row counts, regime flags and probe/rebuild counters."""
        return {
            "column": self.column,
            "keys": len(self._totals),
            "rows": sum(self._counts.values()),
            "exact": self.exact,
            "broken": self._broken,
            "inexact_rows": self._inexact_rows,
            "probes": self.probes,
            "scan_fallbacks": self.scan_fallbacks,
            "rebuilds": self.rebuilds,
            "refreshes": self.refreshes,
        }
