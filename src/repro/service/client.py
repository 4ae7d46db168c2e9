"""Synchronous Python client for the view service's JSONL TCP protocol.

:class:`ServiceClient` is a thin, dependency-free socket client: one
connection, one request line per call, blocking responses.  Query results
come back as the same :class:`~repro.service.core.Snapshot` objects an
in-process :class:`~repro.service.core.ViewService` returns, so application
code can switch between embedded and served modes without changes.

The client is robust against a restarting server: a dropped connection is
re-established transparently with exponential backoff plus jitter, and the
failed request is retried (``retries`` attempts).  Retrying an ingest is
safe because every batch carries a client-supplied id — the server
deduplicates a batch it already applied (acknowledging with
``deduplicated=True``) instead of applying it twice, so a response lost to a
crash between apply and acknowledgement cannot double-count events.  Every
operation also takes a per-call ``timeout`` overriding the client default.

Subscriptions switch a connection into push mode, so use a dedicated client
(:meth:`ServiceClient.subscribe` on a fresh connection) for each subscriber;
:class:`DeltaStream` then iterates the pushed notifications.  Push streams
are *not* transparently resumed — a reconnect cannot replay deltas the dead
connection lost, so the stream closes and the consumer resubscribes with a
fresh snapshot, exactly like the overflow contract.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from typing import Any, Iterable, Iterator

from repro.delta.events import StreamEvent
from repro.errors import ServiceError
from repro.service.core import IngestResult, Snapshot
from repro.service.subscriptions import DeltaNotification
from repro.service.wire import (
    decode_entries,
    decode_value,
    dump_line,
    encode_value,
    parse_line,
)
from repro.streams.adapters import event_to_dict

#: Default socket timeout (seconds) for requests and subscription reads.
DEFAULT_TIMEOUT = 30.0

#: Default reconnect-and-retry attempts after a dropped connection.
DEFAULT_RETRIES = 3

#: First reconnect backoff (seconds); doubles per attempt up to the cap.
DEFAULT_BACKOFF = 0.05
DEFAULT_BACKOFF_MAX = 2.0


class DeltaStream:
    """An iterator over the delta notifications pushed to one subscription."""

    def __init__(self, client: "ServiceClient", view: str, subscription_id: int):
        self._client = client
        self.view = view
        self.subscription_id = subscription_id
        self.closed = False
        self.overflowed = False

    def __iter__(self) -> Iterator[DeltaNotification]:
        while not self.closed:
            message = self._client._read_message()
            if message is None:
                self.closed = True
                break
            kind = message.get("type")
            if kind == "delta":
                yield DeltaNotification(
                    sequence=message["sequence"],
                    version=message["version"],
                    view=message["view"],
                    key=tuple(decode_value(part) for part in message["key"]),
                    old=decode_value(message.get("old")),
                    new=decode_value(message.get("new")),
                )
            elif kind == "subscription_closed":
                self.closed = True
                self.overflowed = bool(message.get("overflowed"))
            else:
                raise ServiceError(f"unexpected push message {message!r}")

    def take(self, count: int) -> list[DeltaNotification]:
        """Block until ``count`` notifications arrived (or the stream closed)."""
        out: list[DeltaNotification] = []
        if count <= 0:
            return out
        for notification in self:
            out.append(notification)
            if len(out) >= count:
                break
        return out


class ServiceClient:
    """One JSONL TCP connection to a running view server (auto-reconnecting)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._file = None
        self._push_mode = False
        self._closed = False
        self._connect()

    # -- plumbing ---------------------------------------------------------------
    def _connect(self) -> None:
        self._teardown()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def _teardown(self) -> None:
        """Drop the current connection quietly (reconnect or close follows)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _read_message(self) -> dict[str, Any] | None:
        line = self._file.readline()
        if not line:
            return None
        return parse_line(line, context="response")

    def _request(
        self,
        payload: dict[str, Any],
        timeout: float | None = None,
        retriable: bool = True,
    ) -> dict[str, Any]:
        """One request/response round trip, reconnecting on socket failure.

        A :class:`ServiceError` the *server* reported is raised immediately —
        the request reached the service and failed there, so a retry would
        just fail again (or, worse, succeed differently).  Only transport
        errors (reset, refused, timeout, half-closed file) trigger the
        reconnect-with-backoff loop.
        """
        if self._closed:
            raise ServiceError("client is closed")
        if self._push_mode:
            raise ServiceError(
                "connection carries a subscription; use a fresh client for requests"
            )
        attempts = self.retries + 1 if retriable else 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                delay = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
                time.sleep(delay * (0.5 + random.random()))  # jittered backoff
            try:
                if self._sock is None:
                    self._connect()
                    self.reconnects += 1
                self._sock.settimeout(self.timeout if timeout is None else timeout)
                self._file.write(dump_line(payload))
                self._file.flush()
                response = self._read_message()
                if response is None:
                    raise ConnectionError("server closed the connection")
                if not response.get("ok"):
                    raise ServiceError(
                        response.get("error", f"request {payload!r} failed")
                    )
                return response
            except ServiceError:
                raise
            except (OSError, ValueError) as exc:
                last_error = exc
                self._teardown()
        raise ServiceError(
            f"request {payload.get('op')!r} failed after {attempts} attempt(s): "
            f"{last_error}"
        )

    # -- operations -------------------------------------------------------------
    def ping(self, timeout: float | None = None) -> int:
        """Liveness check; returns the service version."""
        return self._request({"op": "ping"}, timeout=timeout)["version"]

    def ingest(
        self,
        events: Iterable[StreamEvent],
        batch_id: str | None = None,
        timeout: float | None = None,
    ) -> IngestResult:
        """Apply one atomic batch of events; returns count and new version.

        Every batch carries an id (a fresh UUID unless the caller supplies
        one), making retries after a reconnect idempotent: a batch the server
        already applied is acknowledged, not re-applied.
        """
        if batch_id is None:
            batch_id = uuid.uuid4().hex
        response = self._request(
            {
                "op": "ingest",
                "events": [event_to_dict(e) for e in events],
                "batch_id": batch_id,
            },
            timeout=timeout,
        )
        return IngestResult(
            count=response["count"],
            version=response["version"],
            notifications=response.get("notifications", 0),
            deduplicated=bool(response.get("deduplicated", False)),
        )

    def query(self, view: str | None = None, timeout: float | None = None) -> Snapshot:
        """A version-tagged snapshot of one view."""
        response = self._request({"op": "query", "view": view}, timeout=timeout)
        return Snapshot(
            version=response["version"],
            view=response["view"],
            map_name=response["map"],
            columns=tuple(response["columns"]),
            entries=decode_entries(response["rows"]),
        )

    def subscribe(
        self,
        view: str | None = None,
        queue_size: int | None = None,
        policy: str | None = None,
    ) -> DeltaStream:
        """Turn this connection into a delta stream for one view.

        ``policy`` selects the server-side overflow behaviour (``close`` or
        ``coalesce``).  After the ack the socket switches to blocking mode
        (no timeout): an idle subscription waits for the next delta
        indefinitely instead of dying with ``socket.timeout`` after the
        request timeout.
        """
        response = self._request(
            {"op": "subscribe", "view": view, "queue_size": queue_size,
             "policy": policy}
        )
        self._sock.settimeout(None)
        self._push_mode = True
        return DeltaStream(self, response["view"], response["subscription"])

    def statistics(self, timeout: float | None = None) -> dict[str, Any]:
        """Service + engine statistics."""
        return self._request({"op": "stats"}, timeout=timeout)["statistics"]

    def metrics(self, timeout: float | None = None) -> dict[str, Any]:
        """The server's telemetry registry.

        Returns the full response: ``enabled`` (whether telemetry is on),
        ``prometheus`` (text exposition), ``metrics`` (structured snapshot
        with pre-computed histogram quantiles) and ``statistics`` (the same
        document as :meth:`statistics`; its ``engine`` entry is tagged
        ``repro.stats/1``).
        """
        return self._request({"op": "metrics"}, timeout=timeout)

    def explain(
        self, query: str | None = None, timeout: float | None = None
    ) -> dict[str, Any]:
        """The server's physical-design explain report (``repro.explain/1``).

        Planned kernel shapes for every map and trigger, joined with the
        probe/scan counters the serving engine has actually accumulated.
        """
        return self._request({"op": "explain", "query": query}, timeout=timeout)[
            "report"
        ]

    def explain_row(
        self,
        view: str | None = None,
        key: Iterable[Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Recent provenance history of one view row (or a whole view).

        The server must be running with row provenance enabled (``serve
        --provenance-depth``).  Values decode back to engine types.
        """
        payload: dict[str, Any] = {"op": "explain-row", "view": view}
        if key is not None:
            payload["key"] = [encode_value(part) for part in key]
        report = self._request(payload, timeout=timeout)["report"]
        report["history"] = [
            {
                **entry,
                "key": [decode_value(part) for part in entry["key"]],
                "old": decode_value(entry["old"]),
                "new": decode_value(entry["new"]),
            }
            for entry in report["history"]
        ]
        if report.get("key") is not None:
            report["key"] = [decode_value(part) for part in report["key"]]
        if "current" in report:
            report["current"] = decode_value(report["current"])
        return report

    def checkpoint(self, timeout: float | None = None) -> tuple[int, str]:
        """Persist a checkpoint server-side; returns (version, path)."""
        response = self._request({"op": "checkpoint"}, timeout=timeout)
        return response["version"], response["path"]

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged before it winds down).

        Never retried: reconnecting to a server that is already winding down
        would only race its listener going away.
        """
        self._request({"op": "shutdown"}, retriable=False)

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
