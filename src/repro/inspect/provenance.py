"""Row provenance: bounded per-view mutation-history rings.

A :class:`ProvenanceRecorder` hangs one watcher off every tracked view's
:class:`~repro.runtime.maps.IndexedTable`.  All table mutations — including
those issued by fused/compiled kernels, which bind the table's ``add`` method
directly — funnel through ``add``/``set``/``replace``/``clear``, so the
watcher sees every actual value transition exactly once.  Each transition is
appended to a per-view ``deque(maxlen=depth)`` as a compact tuple::

    (version, key, old, new, cause)

``key`` is the table's own key tuple (values in table-column order), so
recording costs one tuple pack plus one deque append per transition.

``version`` is the engine's event count *after* the causing event (the same
version the service stamps on snapshots); ``cause`` identifies what drove the
mutation:

* ``("event", relation, op, values)`` — one stream event (per-event engines,
  and the batched engine's replayed runs);
* ``("fold", relation, op, events, tuples)`` — a bulk run of the batched
  engine: the run applies ``events`` events at once
  (``tuples == events``: runs keep duplicate tuples apart), so individual
  transitions attribute to the run, not to a single event (the documented
  batching attribution rule);
* ``("restore", version)`` — state swapped in by a checkpoint restore.

The ring is bounded and opt-in: a disabled engine pays nothing, an enabled
one pays one ``None`` check per table write plus one deque append per actual
transition.  Ring contents checkpoint and restore with the engine
(:meth:`state` / :meth:`restore`), so ``explain-row`` keeps working across a
service restart.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Mapping

from repro.errors import RuntimeEngineError

#: Default ring depth: recent-history replay, not an unbounded audit log.
DEFAULT_DEPTH = 64

Cause = tuple
Entry = tuple  # (version, key, old, new, cause)


def cause_to_dict(cause: Cause | None) -> dict[str, Any] | None:
    """Expand a compact cause tuple into the wire/CLI representation."""
    if cause is None:
        return None
    kind = cause[0]
    if kind == "event":
        return {
            "kind": "event",
            "relation": cause[1],
            "op": cause[2],
            "values": list(cause[3]),
        }
    if kind == "fold":
        return {
            "kind": "fold",
            "relation": cause[1],
            "op": cause[2],
            "events": cause[3],
            "tuples": cause[4],
        }
    if kind == "restore":
        return {"kind": "restore", "version": cause[1]}
    return {"kind": str(kind)}


def entry_to_dict(entry: Entry) -> dict[str, Any]:
    """One ring entry in the wire/CLI representation."""
    version, key, old, new, cause = entry
    return {
        "version": version,
        "key": list(key),
        "old": old,
        "new": new,
        "cause": cause_to_dict(cause),
    }


class ProvenanceRecorder:
    """Per-view mutation-history rings for one engine.

    The engine sets :attr:`cause` and :attr:`version` before executing each
    event (or each batched fold) and the table watchers stamp them onto every
    transition they observe.  ``views`` maps view names to their backing
    table columns; entries key by the value tuple in table-column order (the
    same order ``result_dict`` and checkpoints use).
    """

    __slots__ = ("depth", "columns", "rings", "cause", "version")

    def __init__(self, views: Mapping[str, tuple[str, ...]], depth: int = DEFAULT_DEPTH) -> None:
        if depth <= 0:
            raise RuntimeEngineError(f"provenance depth must be positive, got {depth}")
        self.depth = int(depth)
        self.columns = {name: tuple(cols) for name, cols in views.items()}
        self.rings: dict[str, deque] = {
            name: deque(maxlen=self.depth) for name in self.columns
        }
        self.cause: Cause | None = None
        self.version = 0

    # -- recording --------------------------------------------------------------
    def watcher_for(self, view: str) -> Callable[[Any, Any, Any], None]:
        """The table watcher feeding one view's ring.

        This closure runs once per view mutation on the engine's hot path,
        so it does the minimum: pack and append.
        """
        append = self.rings[view].append

        def watch(row, old, new) -> None:
            append((self.version, row, old, new, self.cause))

        return watch

    def set_cause(self, cause: Cause | None, version: int) -> None:
        self.cause = cause
        self.version = version

    # -- reading ----------------------------------------------------------------
    def views(self) -> tuple[str, ...]:
        return tuple(self.rings)

    def history(self, view: str, key: Iterable[Any] | None = None) -> list[Entry]:
        """Ring entries for one view, oldest first; optionally one key only."""
        ring = self.rings.get(view)
        if ring is None:
            raise RuntimeEngineError(
                f"provenance is not tracking view {view!r}; tracked: {sorted(self.rings)}"
            )
        entries = list(ring)
        if key is None:
            return entries
        wanted = tuple(key)
        return [entry for entry in entries if entry[1] == wanted]

    # -- durable state ----------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """Ring contents plus configuration, for the engine checkpoint."""
        return {
            "depth": self.depth,
            "views": {name: list(cols) for name, cols in self.columns.items()},
            "rings": {name: self.history(name) for name in self.rings},
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Reload ring contents saved by :meth:`state` (views must match)."""
        for name, entries in state.get("rings", {}).items():
            ring = self.rings.get(name)
            if ring is None:
                continue  # the restored program stopped tracking this view
            ring.clear()
            ring.extend(tuple(entry) for entry in entries)
