"""Asyncio TCP server exposing one :class:`ViewService` over the JSONL wire.

Operations (one request line -> one response line):

* ``{"op": "ping"}`` — liveness plus the current version;
* ``{"op": "ingest", "events": [...], "batch_id": id?}`` — apply one atomic
  batch; a client-supplied ``batch_id`` makes the ingest idempotent (a retry
  of an already-applied batch is acknowledged with ``deduplicated: true``
  instead of applied twice);
* ``{"op": "query", "view": name?}`` — version-tagged snapshot of one view;
* ``{"op": "subscribe", "view": name?, "policy": name?}`` — switch this
  connection into push mode: after the ack the server streams
  ``{"type": "delta", ...}`` lines for every output-key change of the view
  (ordered, exactly-once); ``policy`` picks the queue-overflow behaviour
  (``close`` or ``coalesce``);
* ``{"op": "stats"}`` — service + engine statistics;
* ``{"op": "metrics"}`` — the telemetry registry: Prometheus text plus a
  structured JSON snapshot, and the ``stats`` document;
* ``{"op": "explain", "query": name?}`` — the physical-design explain report
  (planned kernels joined with this service's observed statistics);
* ``{"op": "explain-row", "view": name?, "key": [...]?}`` — recent provenance
  history of one view row (requires the service to run with provenance on);
* ``{"op": "checkpoint"}`` — persist a checkpoint, returns version and path;
* ``{"op": "shutdown"}`` — stop the server after acknowledging.

Handlers run on one event loop and every mutation goes through the service
lock, so wire clients get the same snapshot-consistency contract as
in-process readers.  Subscription fan-out happens at the end of each ingest
request, before its response is written — a subscriber's delta stream is
therefore never behind an ingest acknowledgement the ingesting client saw.
Deltas published by *in-process* ingestion (``ViewService.ingest`` /
``replay`` called directly on an embedded service) are pumped too: the
server registers a publication hook on the service that schedules a
subscriber pump on the event loop, so TCP subscribers never wait for the
next wire request.

:func:`start_in_thread` runs a server on a background thread with its own
event loop, which is how the examples, benchmarks and tests embed it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.errors import ReproError, ServiceError
from repro.service.core import ViewService
from repro.service.subscriptions import Subscription
from repro.service.wire import (
    decode_value,
    dump_line,
    encode_entries,
    encode_value,
    parse_line,
)
from repro.streams.adapters import events_from_request

#: Safety bound for one request line (16 MiB accommodates large ingest batches).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Unread bytes a subscriber connection may accumulate before it is closed.
MAX_SUBSCRIBER_BACKLOG_BYTES = 8 * 1024 * 1024


class ViewServer:
    """Serves one :class:`ViewService` to JSONL TCP clients."""

    def __init__(self, service: ViewService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._subscribers: list[tuple[Subscription, asyncio.StreamWriter]] = []

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (resolves the real port)."""
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.service.add_publish_hook(self._on_service_publish)

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`; closes connections on the way out."""
        if self._server is None:
            await self.start()
        assert self._stop is not None
        try:
            await self._stop.wait()
        finally:
            self.service.remove_publish_hook(self._on_service_publish)
            self._server.close()
            await self._server.wait_closed()
            for _, writer in list(self._subscribers):
                writer.close()

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (safe from any handler)."""
        if self._stop is not None:
            self._stop.set()

    # -- service-side publication ------------------------------------------------
    def _on_service_publish(self) -> None:
        """Publication hook: runs on whichever thread ingested in-process.

        Hops onto the server's event loop to pump subscribers, so deltas from
        embedded ``ViewService.ingest``/``replay`` calls reach TCP
        subscribers without waiting for the next wire request.  Wire ingests
        run on the loop thread and pump inline right after dispatch, so for
        them the hook is a no-op instead of a redundant second pump.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            if asyncio.get_running_loop() is loop:
                return
        except RuntimeError:
            pass  # no running loop on this thread: an in-process ingest
        try:
            loop.call_soon_threadsafe(self._schedule_pump)
        except RuntimeError:  # loop shut down between the check and the call
            pass

    def _schedule_pump(self) -> None:
        if self._stop is None or self._stop.is_set():
            return
        asyncio.ensure_future(self._pump_subscribers())

    # -- connection handling ----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        subscription: Subscription | None = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # StreamReader.readline re-raises over-limit lines
                    # (> MAX_LINE_BYTES) as ValueError: drop the connection
                    # cleanly rather than crashing the handler task.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = parse_line(line, context="request")
                    response, subscription = await self._dispatch(
                        request, line, writer, subscription
                    )
                except ReproError as exc:
                    response = {"ok": False, "error": str(exc)}
                except Exception as exc:
                    # A type-malformed but valid-JSON request (wrong field
                    # types etc.) is a protocol error, not a reason to drop
                    # the connection without a response.
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                writer.write(dump_line(response))
                await writer.drain()
                if response.get("stopping"):
                    break
        except asyncio.CancelledError:
            # asyncio.run() cancels the connections still open when the server
            # stops.  Ending the task normally (after the cleanup below) keeps
            # the stream protocol from logging that as a callback error.
            if self._stop is None or not self._stop.is_set():
                raise
        finally:
            if subscription is not None:
                self.service.unsubscribe(subscription)
                self._subscribers = [
                    pair for pair in self._subscribers if pair[0] is not subscription
                ]
            writer.close()

    async def _dispatch(
        self,
        request: dict[str, Any],
        line: bytes,
        writer: asyncio.StreamWriter,
        subscription: Subscription | None,
    ) -> tuple[dict[str, Any], Subscription | None]:
        op = request.get("op")
        service = self.service

        if op == "ping":
            return {"ok": True, "version": service.version}, subscription

        if op == "ingest":
            # The line is handed on as read: the write-ahead log stores these
            # bytes, so the batch is encoded once (by the client) and decoded
            # once here — or once more, by the same decoder, if it is replayed.
            result = service.ingest(
                events_from_request(request, line),
                batch_id=request.get("batch_id"),
                encoded=line,
            )
            await self._pump_subscribers()
            return (
                {
                    "ok": True,
                    "count": result.count,
                    "version": result.version,
                    "notifications": result.notifications,
                    "deduplicated": result.deduplicated,
                },
                subscription,
            )

        if op == "query":
            snapshot = service.query(request.get("view"))
            return (
                {
                    "ok": True,
                    "version": snapshot.version,
                    "view": snapshot.view,
                    "map": snapshot.map_name,
                    "columns": list(snapshot.columns),
                    "rows": encode_entries(snapshot.entries),
                },
                subscription,
            )

        if op == "subscribe":
            if subscription is not None:
                raise ServiceError("connection already carries a subscription")
            kwargs = {}
            if request.get("queue_size") is not None:
                kwargs["maxlen"] = int(request["queue_size"])
            if request.get("policy") is not None:
                kwargs["policy"] = str(request["policy"])
            subscription = service.subscribe(request.get("view"), **kwargs)
            self._subscribers.append((subscription, writer))
            return (
                {
                    "ok": True,
                    "view": subscription.view,
                    "subscription": subscription.subscription_id,
                },
                subscription,
            )

        if op == "stats":
            return {"ok": True, "statistics": service.statistics()}, subscription

        if op == "metrics":
            from repro.telemetry import STATS_SCHEMA

            telemetry = service.telemetry
            return (
                {
                    "ok": True,
                    "schema": STATS_SCHEMA,
                    "enabled": telemetry.enabled,
                    "prometheus": telemetry.registry.render_prometheus(),
                    "metrics": telemetry.registry.snapshot(),
                    "statistics": service.statistics(),
                },
                subscription,
            )

        if op == "explain":
            from repro.inspect.explain import build_explain_report

            report = build_explain_report(
                service.program,
                query=request.get("query"),
                statistics=service.statistics().get("engine"),
            )
            return {"ok": True, "report": report}, subscription

        if op == "explain-row":
            key = request.get("key")
            if key is not None:
                key = [decode_value(part) for part in key]
            report = service.explain_row(request.get("view"), key)
            report["history"] = [
                {
                    **entry,
                    "key": [encode_value(part) for part in entry["key"]],
                    "old": encode_value(entry["old"]),
                    "new": encode_value(entry["new"]),
                }
                for entry in report["history"]
            ]
            if "key" in report and report["key"] is not None:
                report["key"] = [encode_value(part) for part in report["key"]]
            if "current" in report:
                report["current"] = encode_value(report["current"])
            return {"ok": True, "report": report}, subscription

        if op == "checkpoint":
            info = service.checkpoint()
            return (
                {"ok": True, "version": info.version, "path": str(info.path)},
                subscription,
            )

        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "stopping": True}, subscription

        raise ServiceError(f"unknown operation {op!r}")

    async def _pump_subscribers(self) -> None:
        """Push pending delta notifications to every subscriber connection.

        Writes are never drained here: draining would let one slow subscriber
        stall the ingest request (and can deadlock a client that ingests
        before reading its own subscription).  Instead the transport buffers,
        and a subscriber whose unread backlog exceeds
        :data:`MAX_SUBSCRIBER_BACKLOG_BYTES` is closed with an overflow mark —
        the same no-silent-loss contract as the bounded queues.
        """
        dead: list[tuple[Subscription, asyncio.StreamWriter]] = []
        tracer = self.service.telemetry.tracer
        with tracer.span("service.deliver", {"subscribers": len(self._subscribers)}):
            await self._pump_subscribers_inner(dead)
        for pair in dead:
            self.service.unsubscribe(pair[0])
            if pair in self._subscribers:
                self._subscribers.remove(pair)

    async def _pump_subscribers_inner(
        self, dead: list[tuple[Subscription, asyncio.StreamWriter]]
    ) -> None:
        for pair in list(self._subscribers):
            subscription, writer = pair
            try:
                lines = [
                    dump_line({"type": "delta", **notification.as_dict()})
                    for notification in subscription.poll()
                ]
                if lines:
                    # One write per pump: the transport issues a send per
                    # write call, not per line.
                    writer.write(b"".join(lines))
                transport = writer.transport
                overflowed = subscription.overflowed or (
                    transport is not None
                    and transport.get_write_buffer_size() > MAX_SUBSCRIBER_BACKLOG_BYTES
                )
                if subscription.closed or overflowed:
                    writer.write(
                        dump_line(
                            {
                                "type": "subscription_closed",
                                "view": subscription.view,
                                "overflowed": overflowed,
                            }
                        )
                    )
                    dead.append(pair)
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                dead.append(pair)


class ServerHandle:
    """A running background server: address plus a way to stop it."""

    def __init__(
        self,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        server: ViewServer,
        holder: dict[str, Any] | None = None,
    ) -> None:
        self._thread = thread
        self._loop = loop
        self._server = server
        self._holder = holder if holder is not None else {}
        self.host = server.host
        self.port = server.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread; surfaces a mid-serve crash."""
        try:
            self._loop.call_soon_threadsafe(self._server.request_stop)
        except RuntimeError:  # loop already closed
            pass
        self._thread.join(timeout)
        error = self._holder.get("error")
        if error is not None:
            raise ServiceError(f"server died while serving: {error}") from error


def start_in_thread(
    service: ViewService, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Run a :class:`ViewServer` on a daemon thread; returns once it accepts."""
    started = threading.Event()
    holder: dict[str, Any] = {}

    async def main() -> None:
        server = ViewServer(service, host, port)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_until_stopped()

    def run() -> None:
        try:
            asyncio.run(main())
        except Exception as exc:
            holder["error"] = exc
            if not started.is_set():  # startup failure (e.g. port in use)
                started.set()
            else:  # mid-serve crash: let threading's excepthook log it too
                raise

    thread = threading.Thread(target=run, name="repro-service", daemon=True)
    thread.start()
    started.wait()
    if "error" in holder:
        raise ServiceError(f"server failed to start: {holder['error']}")
    return ServerHandle(thread, holder["loop"], holder["server"], holder)
