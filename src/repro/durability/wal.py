"""Segmented write-ahead event log with group fsync.

Every ingest batch is appended here *before* it touches engine state, so a
service that crashes at any instant can rebuild bit-identical views from
its newest checkpoint plus this log's tail.  The design follows the classic
recipe:

* **records** — one line per ingest batch, the v2 frame::

      W2 <crc32> <offset> <count> <batch id>\t<payload>\n

  The header is ASCII: the format mark, eight hex digits of CRC32, the
  service version *before* the batch (the batch applies events
  ``offset+1 .. offset+count``), the event count, and the client's
  idempotency id as a JSON literal (``null`` when there is none; JSON
  escaping keeps tabs, newlines, quotes and non-ASCII out of the header, and
  as the last field it may hold spaces).  The CRC covers every byte after
  its own field — offset, count, id, the tab and the payload — so a flipped
  bit anywhere in the record is caught.  The payload is the **ingest request
  line exactly as the server read it from the socket**
  (``{"op":"ingest","events":[...],"batch_id":...}``); this module never
  looks inside it.  Callers that hold no such bytes (in-process ingest) get
  the identical line built by the shared wire encoder
  (:func:`repro.streams.adapters.encode_ingest_request`);

* **what reads what** — opening the log (torn-tail truncation, the gap
  check, the batch-id index) and :meth:`WriteAheadLog.prune` read headers
  and CRCs only.  :meth:`WriteAheadLog.replay` skips records at or below the
  cut from their headers; a yielded record decodes its payload lazily, once,
  on first access to ``.events``, through the same batch decoder the server
  uses for requests (:func:`repro.streams.adapters.events_from_request`).
  A CRC-clean payload that fails to decode is corruption, not a torn tail,
  and raises :class:`~repro.errors.DurabilityError` naming segment and
  offset;

* **v1 read compatibility** — the previous format was one JSON object per
  line, ``{"o":..,"n":..,"e":[..],"b":..}\t<crc32>\n``.  A line that starts
  with ``{`` is read (never written) by :func:`_decode_record`, so a
  directory written before the v2 frame still opens, dedupes and replays,
  also when v2 records follow v1 records in one segment.  Checkpoint cuts
  prune the log, so v1 records disappear from any directory that keeps
  serving; the reader can be deleted once no deployed directory predates
  this format;

* **segments** — records append to ``wal-<offset>.log`` where ``<offset>``
  is the version at which the segment starts.  :meth:`WriteAheadLog.rotate`
  (called at every checkpoint cut) seals the current segment and starts the
  next, and :meth:`WriteAheadLog.prune` deletes segments wholly below the
  oldest checkpoint base that recovery could still need.  Segment creation,
  rotation and pruning all fsync the directory, so the file set itself
  survives power loss — not just the bytes inside the files;

* **group fsync** — ``fsync_every=N`` issues one fsync per N appended
  batches and ``fsync_interval_ms=M`` bounds how long an unsynced record may
  linger; both are checked per append under the service's ingest lock.
  ``fsync_every=1`` (the default) makes every acknowledged batch durable;
  larger groups trade a bounded ack-durability window for throughput.
  :meth:`WriteAheadLog.sync` forces the group out — checkpoint cuts call it
  so a checkpoint never claims an offset the log has not durably reached;

* **torn-tail truncation** — on open, the newest segment is scanned and cut
  back to its last intact record (a crash mid-append leaves a partial or
  CRC-broken final line).  Corruption anywhere *else* is disk rot, not a
  crash artifact, and raises :class:`~repro.errors.DurabilityError` —
  recovery then falls back on replaying the original stream;

* **idempotent ingest** — the log keeps an in-memory index of every batch id
  seen in its live segments; :meth:`WriteAheadLog.seen_batch` lets the
  service answer a retried batch with its original result instead of
  double-applying it.  The dedup window is exactly the log retention window
  (everything since the oldest retained segment), which in turn covers every
  batch a client could still be retrying against a live server.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from repro.core.values import decode_value
from repro.delta.events import StreamEvent
from repro.durability.faults import maybe_crash
from repro.errors import DurabilityError, WorkloadError
from repro.streams.adapters import encode_ingest_request, events_from_request

#: Default bytes after which an append-heavy segment rotates on its own
#: (checkpoint cuts rotate explicitly; this bounds segment size between cuts).
DEFAULT_SEGMENT_MAX_BYTES = 64 * 1024 * 1024

_SEGMENT_PATTERN = re.compile(r"^wal-(\d+)\.log$")
_SEPARATOR = "\t"

_V2_MARK = b"W2"
#: Length of ``W2 <8 hex digits> ``; the CRC covers every byte after it.
_CRC_END = 12


def fsync_directory(directory: Path | str) -> None:
    """fsync a directory so renames/creates/unlinks inside it are durable.

    Best effort: some filesystems refuse directory fsync; the data fsyncs
    still went through, which is the strongest guarantee available there.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class WalRecord:
    """One logged ingest batch: events ``offset+1 .. offset+count``.

    ``events`` decodes the payload on first access and keeps the result, so
    scanning or skipping a record costs its header and CRC only.
    """

    __slots__ = ("offset", "count", "batch_id", "_events", "_decode")

    def __init__(
        self,
        offset: int,
        count: int,
        batch_id: Any = None,
        events: tuple[StreamEvent, ...] | None = None,
        decode: Callable[[], tuple[StreamEvent, ...]] | None = None,
    ) -> None:
        self.offset = offset
        self.count = count
        self.batch_id = batch_id
        self._events = events
        self._decode = decode

    @property
    def end(self) -> int:
        """The service version after this batch."""
        return self.offset + self.count

    @property
    def events(self) -> tuple[StreamEvent, ...]:
        if self._events is None:
            self._events = self._decode()
            self._decode = None  # drops the record line it held
        return self._events

    def __repr__(self) -> str:
        return f"WalRecord({self.offset}..{self.end}, batch_id={self.batch_id!r})"


def _decode_record(line: bytes) -> WalRecord:
    """Read one v1 record line (``{"o","n","e","b"}\\t<crc32>``), events and all.

    Read-only compatibility with directories written before the v2 frame;
    raises ``ValueError``/``KeyError``/``TypeError`` on any damage.
    """
    if not line.endswith(b"\n"):
        raise ValueError("record line is not newline-terminated")
    text = line[:-1].decode("utf-8")
    body, separator, crc_text = text.rpartition(_SEPARATOR)
    if not separator:
        raise ValueError("record line has no CRC field")
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != int(crc_text, 16):
        raise ValueError("record CRC mismatch")
    payload = json.loads(body)
    events = tuple(
        StreamEvent(
            item["relation"],
            tuple(decode_value(value) for value in item["values"]),
            1 if item["kind"] == "insert" else -1,
        )
        for item in payload["e"]
    )
    count = int(payload["n"])
    if count != len(events):
        raise ValueError(f"record claims {count} events, holds {len(events)}")
    return WalRecord(int(payload["o"]), count, payload.get("b"), events=events)


def _decode_batch_id(field: bytes) -> Any:
    """Invert the header's id framing (a JSON literal, ASCII-only)."""
    if field == b"null":
        return None
    if field[:1] == b'"' and b"\\" not in field:
        return field[1:-1].decode("ascii")  # no escapes: the literal is the id
    return json.loads(field)


class WriteAheadLog:
    """The write-ahead log of one service directory."""

    def __init__(
        self,
        directory: str | Path,
        fsync_every: int | None = 1,
        fsync_interval_ms: float | None = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        telemetry=None,
    ) -> None:
        if fsync_every is not None and fsync_every < 1:
            raise DurabilityError(f"fsync_every must be >= 1, got {fsync_every}")
        if fsync_interval_ms is not None and fsync_interval_ms < 0:
            raise DurabilityError(
                f"fsync_interval_ms must be >= 0, got {fsync_interval_ms}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self.fsync_interval_ms = fsync_interval_ms
        self.segment_max_bytes = segment_max_bytes
        self._handle = None
        #: why a failed write closed the log (None while it is healthy).
        self._failure: str | None = None
        self._segment_path: Path | None = None
        self._segment_bytes = 0
        #: version after the last appended record (the log's tip).
        self.end_offset = 0
        #: version after the last *fsynced* record (the durable tip).
        self.synced_offset = 0
        self._unsynced_records = 0
        self._last_sync = perf_counter()
        #: batch id -> (count, end version), over all retained segments.
        self._batch_index: dict[str, tuple[int, int]] = {}
        # Accounting (scraped via stats() / the telemetry collector).
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.truncated_bytes = 0
        self.rotations = 0
        #: records appended from caller-supplied request bytes (not re-encoded).
        self.records_passthrough = 0
        #: record payloads JSON-decoded since open (v1 lines decode when read).
        self.payload_decodes = 0
        self._fsync_hist = None
        if telemetry is not None and getattr(telemetry, "enabled", False):
            registry = telemetry.registry
            self._fsync_hist = registry.histogram(
                "repro_wal_fsync_seconds",
                help="WAL group-commit fsync latency",
            )
            registry.add_collector(self._collect_telemetry)
        self._open()

    # -- telemetry -------------------------------------------------------------
    def _collect_telemetry(self, registry) -> None:
        registry.counter(
            "repro_wal_records_total", help="Ingest batches appended to the WAL"
        ).value = self.records_appended
        registry.counter(
            "repro_wal_bytes_total", help="Bytes appended to the WAL"
        ).value = self.bytes_appended
        registry.counter(
            "repro_wal_fsyncs_total", help="WAL group-commit fsyncs issued"
        ).value = self.fsyncs
        registry.counter(
            "repro_wal_records_passthrough_total",
            help="Ingest batches logged from the request bytes, without re-encoding",
        ).value = self.records_passthrough
        registry.counter(
            "repro_wal_payload_decodes_total",
            help="WAL record payloads JSON-decoded (replayed records, v1 lines)",
        ).value = self.payload_decodes
        registry.gauge(
            "repro_wal_segments", help="Live WAL segments on disk"
        ).set(len(self.segments()))
        registry.gauge(
            "repro_wal_lag_events",
            help="Events appended but not yet fsynced (the ack-durability window)",
        ).set(self.end_offset - self.synced_offset)

    # -- opening / scanning ----------------------------------------------------
    def segments(self) -> list[tuple[int, Path]]:
        """Retained segments as ``(start offset, path)``, oldest first."""
        found = []
        for entry in self.directory.iterdir():
            match = _SEGMENT_PATTERN.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def _open(self) -> None:
        """Scan retained segments, truncate a torn tail, open for append."""
        segments = self.segments()
        tip = 0
        for index, (start, path) in enumerate(segments):
            newest = index == len(segments) - 1
            tip = self._scan_segment(start, path, truncate=newest)
        if segments:
            start, path = segments[-1]
            self._segment_path = path
            self._handle = open(path, "ab")
            self._segment_bytes = path.stat().st_size
        else:
            self._start_segment(0)
        self.end_offset = tip
        self.synced_offset = tip  # everything already on disk is the durable tip
        self._unsynced_records = 0

    def _scan_segment(self, start: int, path: Path, truncate: bool) -> int:
        """Validate one segment; returns the version after its last record."""
        tip = start
        good_bytes = 0
        with open(path, "rb") as handle:
            for line in handle:
                try:
                    record = self._read_record(line, path.name)
                except (ValueError, KeyError, TypeError) as exc:
                    if truncate:
                        damage = path.stat().st_size - good_bytes
                        os.truncate(path, good_bytes)
                        fsync_directory(self.directory)
                        self.truncated_bytes += damage
                        return tip
                    raise DurabilityError(
                        f"corrupt WAL record in non-tail segment {path.name}: {exc}"
                    ) from None
                if record.offset != tip:
                    raise DurabilityError(
                        f"WAL segment {path.name} jumps from offset {tip} "
                        f"to {record.offset}"
                    )
                tip = record.end
                good_bytes += len(line)
                if record.batch_id is not None:
                    self._batch_index[record.batch_id] = (record.count, record.end)
        return tip

    def _read_record(self, line: bytes, segment: str) -> WalRecord:
        """Header and CRC of one record line; the payload stays unparsed.

        Raises ``ValueError`` (``KeyError``/``TypeError`` from a v1 body) on
        any damage — the caller decides between torn tail and corruption.
        """
        if line[:1] == b"{":
            self.payload_decodes += 1
            return _decode_record(line)
        if not line.endswith(b"\n"):
            raise ValueError("record line is not newline-terminated")
        tab = line.find(b"\t")
        fields = line[: max(tab, 0)].split(b" ", 4)  # no tab: no fields
        if len(fields) != 5 or fields[0] != _V2_MARK or len(fields[1]) != 8:
            raise ValueError("record line has no v2 header")
        if zlib.crc32(memoryview(line)[_CRC_END:]) != int(fields[1], 16):
            raise ValueError("record CRC mismatch")
        offset, count = int(fields[2]), int(fields[3])
        return WalRecord(
            offset,
            count,
            _decode_batch_id(fields[4]),
            decode=partial(self._decode_payload, line, tab + 1, offset, count, segment),
        )

    def _decode_payload(
        self, line: bytes, start: int, offset: int, count: int, segment: str
    ) -> tuple[StreamEvent, ...]:
        """The events of one v2 record, through the server's request decoder."""
        payload = line[start:]
        self.payload_decodes += 1
        try:
            events = events_from_request(json.loads(payload), payload)
        except (ValueError, TypeError, AttributeError, WorkloadError) as exc:
            # The CRC matched, so this is not a torn write: the bytes that
            # were logged do not decode.  Never skip it silently.
            raise DurabilityError(
                f"WAL record at offset {offset} in {segment} holds an "
                f"undecodable payload: {exc}"
            ) from None
        if len(events) != count:
            raise DurabilityError(
                f"WAL record at offset {offset} in {segment} claims {count} "
                f"events, its payload holds {len(events)}"
            )
        return tuple(events)

    def _start_segment(self, offset: int) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
        path = self.directory / f"wal-{offset:012d}.log"
        self._handle = open(path, "ab")
        self._segment_path = path
        self._segment_bytes = path.stat().st_size
        maybe_crash("wal.rotate")
        fsync_directory(self.directory)

    # -- appending -------------------------------------------------------------
    def append(
        self,
        offset: int,
        events: Sequence[StreamEvent],
        batch_id: Any = None,
        encoded: bytes | None = None,
    ) -> bool:
        """Append one ingest batch; returns True when it is already durable.

        Must be called under the service's ingest lock, *before* the events
        touch engine state, with ``offset`` equal to the current version.
        ``encoded`` is the request line ``events`` were decoded from, when
        the caller holds it (the server does): it becomes the payload as is.
        Without it the shared wire encoder builds the same line.
        """
        if self._handle is None:
            raise self._closed_error()
        if offset != self.end_offset:
            raise DurabilityError(
                f"WAL append at offset {offset} but the log ends at {self.end_offset}"
            )
        count = len(events)
        if encoded is None:
            payload = encode_ingest_request(events, batch_id)
        else:
            payload = encoded if encoded.endswith(b"\n") else encoded + b"\n"
            if payload.find(b"\n") != len(payload) - 1:
                raise DurabilityError("an encoded ingest request must be one line")
        body = b"%d %d %s\t" % (offset, count, json.dumps(batch_id).encode("ascii"))
        crc = zlib.crc32(payload, zlib.crc32(body))
        line = b"".join((b"W2 %08x " % crc, body, payload))
        maybe_crash("wal.append.serialized")
        try:
            self._handle.write(line)
            self._handle.flush()
        except BaseException as exc:
            self._fail(exc)
            raise
        maybe_crash("wal.append.written")
        end = offset + count
        self.end_offset = end
        self.records_appended += 1
        if encoded is not None:
            self.records_passthrough += 1
        self.bytes_appended += len(line)
        self._segment_bytes += len(line)
        self._unsynced_records += 1
        if batch_id is not None:
            self._batch_index[batch_id] = (count, end)
        synced = False
        if self._should_sync():
            self.sync()
            synced = True
        if self._segment_bytes >= self.segment_max_bytes:
            if not synced:
                self.sync()
                synced = True
            self._start_segment(self.end_offset)
            self.rotations += 1
        return synced

    def _fail(self, exc: BaseException) -> None:
        """Close the log after a write or fsync that may have left bytes behind.

        What reached the file is unknown (a torn record, or a record whose
        fsync failed), so appending after it could bury a torn record under
        acknowledged ones.  Every later append and sync is refused instead;
        reopening the log truncates a torn tail and replays what is intact.
        """
        handle, self._handle = self._handle, None
        self._failure = f"{type(exc).__name__}: {exc}"
        try:
            handle.close()
        except OSError:
            pass

    def _closed_error(self) -> DurabilityError:
        if self._failure is None:
            return DurabilityError("write-ahead log is closed")
        return DurabilityError(
            f"write-ahead log closed after a failed write ({self._failure}); "
            "restart the service to recover from the log"
        )

    def _should_sync(self) -> bool:
        if self.fsync_every is not None and self._unsynced_records >= self.fsync_every:
            return True
        if self.fsync_interval_ms is not None:
            return (perf_counter() - self._last_sync) * 1000.0 >= self.fsync_interval_ms
        return False

    def sync(self) -> None:
        """Force the pending record group to durable storage."""
        if self._handle is None:
            raise self._closed_error()
        if self._unsynced_records == 0 and self.synced_offset == self.end_offset:
            self._last_sync = perf_counter()
            return
        maybe_crash("wal.fsync")
        started = perf_counter()
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except BaseException as exc:
            self._fail(exc)
            raise
        elapsed = perf_counter() - started
        maybe_crash("wal.synced")
        self.fsyncs += 1
        self.synced_offset = self.end_offset
        self._unsynced_records = 0
        self._last_sync = perf_counter()
        if self._fsync_hist is not None:
            self._fsync_hist.observe(elapsed)

    # -- checkpoint-cut maintenance ---------------------------------------------
    def rotate(self) -> None:
        """Seal the current segment at the tip and start the next one.

        Called at checkpoint cuts so :meth:`prune` can later drop whole
        segments below a durable checkpoint without splitting files.
        """
        self.sync()
        if self._segment_bytes == 0:
            return  # current segment is empty: it already starts at the tip
        self._start_segment(self.end_offset)
        self.rotations += 1

    def prune(self, keep_from_offset: int) -> int:
        """Delete segments whose records all precede ``keep_from_offset``.

        A segment is removable when the *next* segment starts at or below
        ``keep_from_offset`` (every record in it is then older than anything
        recovery could need).  Returns the number of segments removed.
        """
        segments = self.segments()
        removed = 0
        pruned_to = 0
        for index, (_, path) in enumerate(segments):
            if index + 1 >= len(segments):
                break  # never remove the active segment
            next_start = segments[index + 1][0]
            if next_start <= keep_from_offset and path != self._segment_path:
                path.unlink()
                removed += 1
                pruned_to = next_start
        if removed:
            # Segments are contiguous: the batches that lived in the removed
            # ones are exactly the indexed ids ending at or below ``pruned_to``.
            self._batch_index = {
                batch_id: entry
                for batch_id, entry in self._batch_index.items()
                if entry[1] > pruned_to
            }
            maybe_crash("wal.pruned")
            fsync_directory(self.directory)
        return removed

    def align_to(self, offset: int) -> None:
        """Restart the log at ``offset`` when it is behind the restored state.

        Used when checkpoints are newer than the retained log (e.g. a fresh
        WAL directory next to surviving checkpoints): every record at or
        below ``offset`` is already reflected in the restored checkpoint, so
        the old segments — and their batch-id dedup window — are dropped and
        a new segment starts at the restored version.
        """
        if offset < self.end_offset:
            raise DurabilityError(
                f"cannot align the WAL to offset {offset}: the log already "
                f"ends at {self.end_offset}"
            )
        if offset == self.end_offset:
            return
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        for _, path in self.segments():
            path.unlink()
        self._batch_index.clear()
        self.end_offset = offset
        self.synced_offset = offset
        self._unsynced_records = 0
        self._start_segment(offset)

    def reset(self) -> None:
        """Delete every segment and restart the log at offset 0 (``--fresh``)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        for _, path in self.segments():
            path.unlink()
        fsync_directory(self.directory)
        self._batch_index.clear()
        self.end_offset = 0
        self.synced_offset = 0
        self._unsynced_records = 0
        self._start_segment(0)

    # -- replay / dedup ---------------------------------------------------------
    def replay(self, from_offset: int = 0) -> Iterator[WalRecord]:
        """Yield the records whose batches end after ``from_offset``, in order.

        ``from_offset`` is a checkpoint cut, and cuts always align with batch
        boundaries — a record straddling it means the log and the checkpoint
        disagree about history and recovery must not guess.
        """
        tip: int | None = None
        for start, path in self.segments():
            with open(path, "rb") as handle:
                for line in handle:
                    try:
                        record = self._read_record(line, path.name)
                    except (ValueError, KeyError, TypeError) as exc:
                        raise DurabilityError(
                            f"corrupt WAL record during replay in {path.name}: {exc}"
                        ) from None
                    if tip is not None and record.offset != tip:
                        raise DurabilityError(
                            f"WAL gap: segment {path.name} continues at offset "
                            f"{record.offset}, expected {tip}"
                        )
                    tip = record.end
                    if record.end <= from_offset:
                        continue
                    if record.offset < from_offset:
                        raise DurabilityError(
                            f"checkpoint cut {from_offset} falls inside WAL record "
                            f"{record.offset}..{record.end}; cuts must align with "
                            f"ingest batches"
                        )
                    yield record

    def seen_batch(self, batch_id: str) -> tuple[int, int] | None:
        """``(count, version)`` of an already-logged batch id, else None."""
        return self._batch_index.get(batch_id)

    # -- accounting / lifecycle --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters for ``service.statistics()`` and the bench harness."""
        return {
            "end_offset": self.end_offset,
            "synced_offset": self.synced_offset,
            "lag_events": self.end_offset - self.synced_offset,
            "segments": len(self.segments()),
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "fsyncs": self.fsyncs,
            "rotations": self.rotations,
            "truncated_bytes": self.truncated_bytes,
            "records_passthrough": self.records_passthrough,
            "payload_decodes": self.payload_decodes,
            "batch_ids_indexed": len(self._batch_index),
            "fsync_every": self.fsync_every,
            "fsync_interval_ms": self.fsync_interval_ms,
        }

    def close(self) -> None:
        """Sync and close the active segment."""
        if self._handle is None:
            return
        try:
            self.sync()
        finally:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
