"""Checkpoint/restore: durable service state on disk.

A **checkpoint** captures, at one event offset, everything a restarted
service needs to serve bit-identical views without replaying the whole
stream:

* the engine state from
  :meth:`~repro.runtime.protocol.EngineProtocol.checkpoint_state` — every
  map's entries, every stored base relation (including loaded static tables)
  and the engine's event count — with exact runtime value types;
* the service **version** (event offset), so a replay source knows how many
  leading events to skip;
* the running stream statistics, so reporting continues seamlessly.

Every cut writes one such full base.  Restore loads the newest *intact*
base (:meth:`CheckpointStore.load` falls back past a corrupt newest file)
and the write-ahead log replays everything after it.
:meth:`CheckpointStore.prune` keeps the newest :data:`KEEP_BASES` bases —
the newest plus one fallback — and returns the oldest kept version, which
is also the offset the WAL can be pruned to.  ``delta-*.ckpt`` files left
by builds that wrote incremental checkpoints are never read; pruning
deletes them.

Files are pickled payloads named ``checkpoint-<offset>.ckpt``, written
atomically (temp file + fsync + rename, then a directory fsync) so a crash
mid-write never corrupts the latest durable state.  Pickle is the right
trade-off here: checkpoints are private files written and read by the same
library, and restore must reproduce values *bit-identically* (ints vs floats
vs Fractions survive, which JSON cannot guarantee).
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.durability.faults import maybe_crash
from repro.durability.wal import fsync_directory
from repro.errors import ServiceError

#: Version tag of the checkpoint payload layout.
CHECKPOINT_FORMAT = 1

#: How many full bases checkpoint GC retains: the newest plus one fallback.
KEEP_BASES = 2

_FILE_PATTERN = re.compile(r"^checkpoint-(\d+)\.ckpt$")


@dataclass(frozen=True)
class CheckpointInfo:
    """Metadata of one on-disk checkpoint."""

    path: Path
    version: int


class CheckpointStore:
    """Writes and reads the checkpoints of one service directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- writing ----------------------------------------------------------------
    def save(
        self,
        version: int,
        engine_state: Mapping[str, Any],
        stream_stats: Mapping[str, Any] | None = None,
        audit_state: Mapping[str, Any] | None = None,
    ) -> CheckpointInfo:
        """Persist one full checkpoint atomically; returns its metadata.

        ``audit_state`` carries the online auditor's base-relation mirror
        when auditing is enabled, so a restored service keeps auditing
        (checkpoints without it deactivate a live auditor on restore).
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "kind": "full",
            "version": version,
            "engine_state": dict(engine_state),
            "stream_stats": dict(stream_stats or {}),
        }
        if audit_state is not None:
            payload["audit_state"] = dict(audit_state)
        path = self.directory / f"checkpoint-{version:012d}.ckpt"
        handle, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".checkpoint-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as temp:
                pickle.dump(payload, temp, protocol=pickle.HIGHEST_PROTOCOL)
                temp.flush()
                os.fsync(temp.fileno())
            maybe_crash("checkpoint.written")
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        maybe_crash("checkpoint.renamed")
        fsync_directory(self.directory)
        return CheckpointInfo(path=path, version=version)

    # -- reading ----------------------------------------------------------------
    def list(self) -> list[CheckpointInfo]:
        """All full checkpoints in the directory, oldest first."""
        found: list[CheckpointInfo] = []
        for entry in self.directory.iterdir():
            match = _FILE_PATTERN.match(entry.name)
            if match:
                found.append(CheckpointInfo(path=entry, version=int(match.group(1))))
        return sorted(found, key=lambda info: info.version)

    def latest(self) -> CheckpointInfo | None:
        """The most recent full checkpoint, or ``None`` when there is none."""
        checkpoints = self.list()
        return checkpoints[-1] if checkpoints else None

    def load(self, info: CheckpointInfo | None = None) -> dict[str, Any]:
        """Read one full-checkpoint payload (the newest *intact* one by default).

        With an explicit ``info`` the file must be readable.  Without one, a
        corrupt newest file (e.g. truncated by a crash) is skipped in favour
        of the next older checkpoint rather than failing the restore.
        """
        if info is not None:
            return self._read(info)
        checkpoints = self.list()
        if not checkpoints:
            raise ServiceError(f"no checkpoints in {self.directory}")
        errors: list[str] = []
        for candidate in reversed(checkpoints):
            try:
                return self._read(candidate)
            except ServiceError:
                raise  # explicit format mismatch, not corruption
            except Exception as exc:
                errors.append(f"{candidate.path.name}: {exc}")
        raise ServiceError(
            f"no intact checkpoint in {self.directory} ({'; '.join(errors)})"
        )

    def _read(self, info: CheckpointInfo) -> dict[str, Any]:
        with open(info.path, "rb") as handle:
            payload = pickle.load(handle)
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ServiceError(
                f"checkpoint {info.path} has format {payload.get('format')!r}; "
                f"this build reads format {CHECKPOINT_FORMAT}"
            )
        return payload

    # -- garbage collection -------------------------------------------------------
    def prune(self) -> int | None:
        """Drop every base but the newest :data:`KEEP_BASES` (and any delta file).

        Returns the oldest kept base version — the offset the WAL can safely
        be pruned to — or None when nothing is on disk yet.
        """
        bases = self.list()
        if not bases:
            return None
        stale = [info.path for info in bases[:-KEEP_BASES]]
        stale += self.directory.glob("delta-*.ckpt")
        for path in stale:
            path.unlink(missing_ok=True)
        if stale:
            maybe_crash("checkpoint.pruned")
            fsync_directory(self.directory)
        return bases[-KEEP_BASES:][0].version

    def reset(self) -> None:
        """Delete every checkpoint file (``--fresh``): the next restart starts cold."""
        for pattern in ("checkpoint-*", "delta-*"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
        fsync_directory(self.directory)
