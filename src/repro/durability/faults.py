"""Deterministic crash-point injection for the durability layer.

Durability code is exactly the code whose interesting behaviour only shows
when the process dies at the worst possible instant.  This module gives the
test suite (and the CLI smoke jobs) a way to make that instant *chosen and
repeatable*: the WAL, checkpoint and recovery paths call
:func:`maybe_crash` at a small catalog of named **crash sites**, and an
armed site kills the process with ``os._exit`` — no ``atexit`` handlers, no
buffered-file flushing, no ``finally`` blocks, exactly like ``kill -9``.

Arming is either programmatic (:func:`arm`, used by the fork-based property
suite) or via the environment (used by subprocess smoke tests)::

    REPRO_CRASH_SITE=wal.append.written REPRO_CRASH_HITS=3 \
        python -m repro.service replay ...

kills the process the third time a WAL record has been written but not yet
fsynced.  An unarmed :func:`maybe_crash` is one module-level ``None`` check,
so leaving the hooks in production paths costs nothing measurable — and the
hooks live only on durability paths (per-batch, never per-event).

The crash-site catalog (every name is stable API for the test suite):

========================== =====================================================
site                       the process dies ...
========================== =====================================================
``wal.append.serialized``  after serializing a record, before writing it
``wal.append.written``     after the OS write, before any fsync decision
``wal.fsync``              inside the group-commit fsync, before the syscall
``wal.synced``             right after a successful WAL fsync
``wal.rotate``             after creating a new segment, before the dir fsync
``wal.pruned``             after deleting old segments, before the dir fsync
``checkpoint.written``     checkpoint temp file written+fsynced, before rename
``checkpoint.renamed``     after the rename, before the directory fsync
``checkpoint.pruned``      after checkpoint GC unlinked files
``recovery.restored``      after the newest intact base loaded, before WAL replay
``recovery.replayed``      after the WAL tail replayed, before serving resumes
========================== =====================================================
"""

from __future__ import annotations

import os

#: Exit status used by injected crashes — the same one ``kill -9`` produces
#: as seen through ``subprocess`` conventions (128 + SIGKILL).
CRASH_EXIT_STATUS = 137

#: Every named crash site, in rough execution order (stable test API).
CRASH_SITES: tuple[str, ...] = (
    "wal.append.serialized",
    "wal.append.written",
    "wal.fsync",
    "wal.synced",
    "wal.rotate",
    "wal.pruned",
    "checkpoint.written",
    "checkpoint.renamed",
    "checkpoint.pruned",
    "recovery.restored",
    "recovery.replayed",
)

_armed_site: str | None = None
_hits_left: int = 0


def arm(site: str, hits: int = 1) -> None:
    """Arm ``site``: the ``hits``-th time it is reached the process dies."""
    global _armed_site, _hits_left
    if site not in CRASH_SITES:
        raise ValueError(f"unknown crash site {site!r}; catalog: {CRASH_SITES}")
    if hits < 1:
        raise ValueError(f"hits must be >= 1, got {hits}")
    _armed_site = site
    _hits_left = hits


def disarm() -> None:
    """Remove any armed crash site."""
    global _armed_site, _hits_left
    _armed_site = None
    _hits_left = 0


def armed() -> str | None:
    """The currently armed site, or None."""
    return _armed_site


def maybe_crash(site: str) -> None:
    """Die via ``os._exit`` when ``site`` is armed and its countdown expires."""
    global _hits_left
    if _armed_site is None or _armed_site != site:
        return
    _hits_left -= 1
    if _hits_left <= 0:
        # Flush nothing, run nothing: indistinguishable from kill -9 for
        # every durability invariant (page cache survives, process does not).
        os._exit(CRASH_EXIT_STATUS)


def _arm_from_environment() -> None:
    site = os.environ.get("REPRO_CRASH_SITE")
    if site:
        arm(site, int(os.environ.get("REPRO_CRASH_HITS", "1")))


_arm_from_environment()
