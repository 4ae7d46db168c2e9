"""Stream adapters: move events between files, plain rows and the engines.

The released DBToaster binaries consume updates from CSV files or sockets;
these adapters provide the file-based equivalent so generated workloads can
be persisted, replayed and shared between benchmark runs.

Two file formats are supported:

* CSV (``write_events_csv`` / ``events_from_csv``) — compact and spreadsheet
  friendly, but typed by parsing: every field is re-read as int, float, bool,
  ``None`` or string, so a *string* that looks like one of those literals
  (``"7"``, ``"True"``) comes back as the typed value;
* JSON lines (``write_events_jsonl`` / ``events_from_jsonl``) — one event
  object per line, lossless for the engine value types (int, float, bool,
  ``None``, str).  This is also the wire format of the serving layer
  (:mod:`repro.service`), which reuses :func:`event_to_dict` /
  :func:`event_from_dict`.

The serving layer's ingest request — one line holding a whole batch — is
encoded and decoded here too (:func:`encode_ingest_request`,
:func:`events_from_request`): the write-ahead log stores that line verbatim,
so the server, the client side and :mod:`repro.durability.wal` must share one
codec, and this module is below all three.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.values import FRACTION_TAG, decode_value, json_default
from repro.delta.events import DELETE, INSERT, StreamEvent
from repro.errors import WorkloadError

_KIND_SIGNS = {"insert": INSERT, "delete": DELETE}


def events_from_rows(
    relation: str,
    rows: Iterable[Sequence[Any] | Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    sign: int = INSERT,
) -> Iterator[StreamEvent]:
    """Turn plain rows into insert (or delete) events for one relation."""
    for row in rows:
        if isinstance(row, Mapping):
            if columns is None:
                raise WorkloadError("columns are required when rows are mappings")
            values = tuple(row[c] for c in columns)
        else:
            values = tuple(row)
        yield StreamEvent(relation, values, sign)


def write_events_csv(path: str | Path, events: Iterable[StreamEvent]) -> int:
    """Persist events to a CSV file (kind, relation, values...); returns the count.

    ``None`` is written as the literal ``None`` (the csv module would emit an
    empty string, which cannot be told apart from ``""``); the reader turns
    the ``True``/``False``/``None`` literals back into their typed values.
    """
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for event in events:
            values = ["None" if value is None else value for value in event.values]
            writer.writerow([event.kind, event.relation, *values])
            count += 1
    return count


_CSV_LITERALS = {"True": True, "False": False, "None": None}


def _parse_value(text: str) -> Any:
    literal = _CSV_LITERALS.get(text, text)
    if literal is not text:
        return literal
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def events_from_csv(path: str | Path) -> Iterator[StreamEvent]:
    """Read back events written by :func:`write_events_csv`."""
    with open(path, newline="") as handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if len(row) < 2:
                raise WorkloadError(f"malformed event on line {line_number}: {row!r}")
            kind, relation, *values = row
            sign = _KIND_SIGNS.get(kind)
            if sign is None:
                raise WorkloadError(f"unknown event kind {kind!r} on line {line_number}")
            yield StreamEvent(relation, tuple(_parse_value(v) for v in values), sign)


def event_to_dict(event: StreamEvent) -> dict[str, Any]:
    """A JSON-serializable representation of one event (the wire/JSONL format)."""
    return {"kind": event.kind, "relation": event.relation, "values": list(event.values)}


def event_from_dict(payload: Mapping[str, Any], context: str = "event") -> StreamEvent:
    """Rebuild an event from :func:`event_to_dict` output, validating the shape."""
    if not isinstance(payload, Mapping):
        raise WorkloadError(f"{context}: expected an object, got {payload!r}")
    try:
        kind = payload["kind"]
        relation = payload["relation"]
        values = payload["values"]
    except KeyError as exc:
        raise WorkloadError(f"{context}: missing field {exc.args[0]!r}") from None
    sign = _KIND_SIGNS.get(kind)
    if sign is None:
        raise WorkloadError(f"{context}: unknown event kind {kind!r}")
    if not isinstance(relation, str) or not isinstance(values, (list, tuple)):
        raise WorkloadError(f"{context}: malformed relation/values in {payload!r}")
    return StreamEvent(relation, tuple(values), sign)


_FRACTION_TAG_BYTES = FRACTION_TAG.encode("ascii")


def encode_ingest_request(
    events: Iterable[StreamEvent], batch_id: Any = None
) -> bytes:
    """The wire line of one ingest request (what ``ServiceClient.ingest`` sends).

    One ``json.dumps`` for the whole batch; Fraction values become
    ``{"__fraction__": [n, d]}`` through the encoder's ``default`` hook.
    """
    request: dict[str, Any] = {
        "op": "ingest",
        "events": [
            {"kind": event.kind, "relation": event.relation, "values": event.values}
            for event in events
        ],
    }
    if batch_id is not None:
        request["batch_id"] = batch_id
    text = json.dumps(request, separators=(",", ":"), default=json_default)
    return text.encode("utf-8") + b"\n"


def events_from_request(request: Mapping[str, Any], line: bytes) -> list[StreamEvent]:
    """The events of one parsed ingest request; ``line`` is the bytes it came from.

    The batch form of :func:`event_from_dict`: one loop over well-formed
    payloads, falling back to the per-event decoder only to name the
    offending index in its error.  Fraction tags are decoded when — and only
    when — the line contains the tag at all.
    """
    payloads = request.get("events", ())
    tagged = _FRACTION_TAG_BYTES in line
    signs = _KIND_SIGNS
    events = []
    append = events.append
    try:
        for payload in payloads:
            relation = payload["relation"]
            values = payload["values"]
            if type(relation) is not str or type(values) is not list:
                raise TypeError
            if tagged:
                values = [decode_value(value) for value in values]
            append(StreamEvent(relation, values, signs[payload["kind"]]))
    except (KeyError, TypeError):
        # Anything json.loads can produce that fails above is malformed: the
        # per-event decoder raises, naming the index.
        return [
            event_from_dict(payload, context=f"events[{i}]")
            for i, payload in enumerate(payloads)
        ]
    return events


def write_events_jsonl(path: str | Path, events: Iterable[StreamEvent]) -> int:
    """Persist events as JSON lines (lossless value typing); returns the count."""
    count = 0
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event_to_dict(event)))
            handle.write("\n")
            count += 1
    return count


def events_from_jsonl(path: str | Path) -> Iterator[StreamEvent]:
    """Read back events written by :func:`write_events_jsonl`."""
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(
                    f"malformed JSON on line {line_number}: {exc}"
                ) from None
            yield event_from_dict(payload, context=f"line {line_number}")
