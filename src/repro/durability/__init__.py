"""Durability layer: write-ahead log, crash-point injection, recovery support.

The serving layer composes three mechanisms to survive ``kill -9`` at any
instant with bit-identical views:

* :class:`~repro.durability.wal.WriteAheadLog` — every ingest batch is
  logged (the request line behind a CRC'd header, group fsync) *before* it
  touches engine state;
* checkpoints — ``service/checkpoint.py`` writes one full base of the
  engine state at every cut and keeps the newest two;
* recovery — newest intact base + idempotent WAL tail replay (orchestrated
  by ``repro.service.core.ViewService.recover``).

:mod:`repro.durability.faults` provides the deterministic crash-site
injection the test suite uses to prove all of the above.
"""

from repro.durability.faults import (
    CRASH_EXIT_STATUS,
    CRASH_SITES,
    arm,
    armed,
    disarm,
    maybe_crash,
)
from repro.durability.wal import (
    DEFAULT_SEGMENT_MAX_BYTES,
    WalRecord,
    WriteAheadLog,
    fsync_directory,
)

__all__ = [
    "CRASH_EXIT_STATUS",
    "CRASH_SITES",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "WalRecord",
    "WriteAheadLog",
    "arm",
    "armed",
    "disarm",
    "fsync_directory",
    "maybe_crash",
]
