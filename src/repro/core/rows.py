"""Tuples ("rows") of the GMR data model.

The paper (Section 3.1) models tuples as partial functions from column names to
values; the same structure serves as a variable environment (context) during
AGCA evaluation.  :class:`Row` is an immutable, hashable mapping with helpers
for the natural-join style consistency checks the semantics relies on.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


class Row(Mapping[str, Any]):
    """An immutable partial function from column/variable names to values.

    Rows are hashable so they can key GMR dictionaries.  Equality is by
    content, independent of construction order.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Mapping[str, Any] | Iterable[tuple[str, Any]] = ()) -> None:
        if isinstance(mapping, Row):
            self._items = mapping._items
            self._hash = mapping._hash
            return
        if isinstance(mapping, Mapping):
            pairs = mapping.items()
        else:
            pairs = mapping
        items = tuple(sorted((str(name), value) for name, value in pairs))
        seen = set()
        for name, _ in items:
            if name in seen:
                raise ValueError(f"duplicate column {name!r} in row")
            seen.add(name)
        self._items = items
        self._hash = hash(items)

    @classmethod
    def factory(cls, columns: Sequence[str]) -> Callable[[Sequence[Any]], "Row"]:
        """Rows over fixed ``columns``, built from value tuples in that order.

        The name sort and duplicate check of ``__init__`` run once, here; each
        call only pairs the values with the sorted names.  This is how the
        runtime's positional key tuples become the evaluator's rows.
        """
        order = sorted(range(len(columns)), key=lambda i: str(columns[i]))
        names = tuple(str(columns[i]) for i in order)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column in {tuple(columns)!r}")
        pick = itemgetter(*order) if order != list(range(len(order))) else None
        new = cls.__new__

        def make(values: Sequence[Any]) -> Row:
            row = new(cls)
            row._items = items = tuple(zip(names, values if pick is None else pick(values)))
            row._hash = hash(items)
            return row

        return make

    # -- Mapping protocol -------------------------------------------------
    def items(self) -> tuple[tuple[str, Any], ...]:  # type: ignore[override]
        """The ``(name, value)`` pairs, name-sorted (no per-name lookups)."""
        return self._items

    def __getitem__(self, name: str) -> Any:
        for key, value in self._items:
            if key == name:
                return value
        raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, name: object) -> bool:
        return any(key == name for key, _ in self._items)

    # -- identity ---------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {value!r}" for name, value in self._items)
        return f"<{inner}>"

    # -- row algebra --------------------------------------------------------
    @property
    def columns(self) -> frozenset[str]:
        """The domain of the row (set of bound column names)."""
        return frozenset(name for name, _ in self._items)

    def project(self, columns: Iterable[str]) -> "Row":
        """Restrict the row to ``columns`` (missing names are ignored)."""
        wanted = set(columns)
        return Row((name, value) for name, value in self._items if name in wanted)

    def drop(self, columns: Iterable[str]) -> "Row":
        """Remove ``columns`` from the row."""
        unwanted = set(columns)
        return Row((name, value) for name, value in self._items if name not in unwanted)

    def rename(self, mapping: Mapping[str, str]) -> "Row":
        """Rename columns according to ``mapping`` (missing names kept as-is)."""
        return Row((mapping.get(name, name), value) for name, value in self._items)

    def extend(self, other: Mapping[str, Any]) -> "Row":
        """Consistent concatenation with ``other``.

        Raises ``ValueError`` if the rows disagree on a shared column; this is
        the ``{s} ⋈ {t} ≠ ∅`` precondition of the paper's semantics.
        """
        merged = dict(self._items)
        for name, value in other.items():
            if name in merged and merged[name] != value:
                raise ValueError(
                    f"inconsistent concatenation on column {name!r}: "
                    f"{merged[name]!r} vs {value!r}"
                )
            merged[name] = value
        return Row(merged)

    def consistent_with(self, other: Mapping[str, Any]) -> bool:
        """True when the rows agree on every shared column."""
        for name, value in other.items():
            mine = self.get(name, _MISSING)
            if mine is not _MISSING and mine != value:
                return False
        return True


_MISSING = object()

#: The empty tuple ⟨⟩ of the paper.
EMPTY_ROW = Row()


def rows_consistent(left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
    """True when ``left`` and ``right`` agree on shared columns (joinable)."""
    for name, value in right.items():
        if name in left and left[name] != value:
            return False
    return True


def merge_rows(left: Row, right: Mapping[str, Any]) -> Row:
    """Consistent concatenation of two rows (natural join of singletons)."""
    return left.extend(right)
