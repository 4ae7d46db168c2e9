"""The JSONL wire format shared by the service server and client.

Every message is one JSON object per ``\\n``-terminated line.  Requests carry
an ``op`` field; responses carry ``ok`` (with ``error`` on failure); pushed
subscription messages carry ``type: "delta"``.

Engine values are Python numbers (int, float, :class:`fractions.Fraction`),
strings, booleans or ``None``.  Everything except Fraction maps 1:1 onto
JSON; Fractions are wrapped as ``{"__fraction__": [numerator, denominator]}``
so served snapshots stay bit-identical to in-process reads.  Events reuse the
JSONL adapter representation from :mod:`repro.streams.adapters`
(``{"kind", "relation", "values"}``), and the ingest request's batch codec
(``encode_ingest_request`` / ``events_from_request``) lives there as well —
below both this package and :mod:`repro.durability`, whose log stores
accepted request lines verbatim and so must share it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.core.values import FRACTION_TAG, decode_value, encode_value  # noqa: F401
from repro.errors import ServiceError


def encode_entries(entries: Mapping[tuple, Any]) -> list[list[Any]]:
    """View contents as ``[[key values...], value]`` rows."""
    return [
        [[encode_value(part) for part in key], encode_value(value)]
        for key, value in entries.items()
    ]


def decode_entries(rows: Iterable[Iterable[Any]]) -> dict[tuple, Any]:
    """Invert :func:`encode_entries`."""
    return {
        tuple(decode_value(part) for part in key): decode_value(value)
        for key, value in rows
    }


def dump_line(payload: Mapping[str, Any]) -> bytes:
    """Serialize one message to a wire line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def parse_line(line: bytes | str, context: str = "message") -> dict[str, Any]:
    """Parse one wire line into a message dictionary."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed {context}: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError(f"malformed {context}: expected an object, got {payload!r}")
    return payload
