"""Helpers shared by the durability tests (imported by name)."""

import errno
import os
from types import SimpleNamespace

from repro.compiler.hoivm import compile_query
from repro.runtime.engine import IncrementalEngine
from repro.service import ViewService, engine_for_mode
from repro.workloads import workload


def typed(entries):
    """Entries with value types pinned: bit-identical, not merely ==."""
    return {key: (type(value), value) for key, value in entries.items()}


def load_statics(engine_or_service, program, statics):
    for relation, rows in statics.items():
        if relation in program.static_relations:
            engine_or_service.load_static(relation, rows)


def reference_entries(program, statics, events, version=None, name=None):
    """View contents after replaying a stream prefix through a fresh engine."""
    engine = IncrementalEngine(program)
    load_statics(engine, program, statics)
    engine.apply_many(events if version is None else events[:version])
    return engine.result_dict(name)


def make_workload_fixture(query_name, events, **stream_kwargs):
    spec = workload(query_name)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    return SimpleNamespace(
        spec=spec,
        translated=translated,
        program=program,
        statics=spec.static_tables(),
        events=list(spec.stream_factory(events=events, **stream_kwargs)),
        root=next(iter(translated.roots())),
    )


def build_durable_service(fixture, mode="incremental", *, base, statics=True, **kwargs):
    """A service with checkpoints under ``base/ckpt`` and its WAL under ``base/wal``."""
    engine_kwargs = {
        k: kwargs.pop(k) for k in ("batch_size", "partitions", "backend") if k in kwargs
    }
    service = ViewService(
        engine_for_mode(fixture.program, mode, **engine_kwargs),
        checkpoint_dir=base / "ckpt",
        wal_dir=base / "wal",
        **kwargs,
    )
    if statics:
        load_statics(service, fixture.program, fixture.statics)
    return service


class HalfWriteThenENOSPC:
    """A WAL segment handle whose writes store half the record, then fail."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._handle, name)


def inject_enospc(wal):
    """The disk fills up halfway through the log's next record."""
    wal._handle = HalfWriteThenENOSPC(wal._handle)


def inject_fsync_eio(monkeypatch):
    """Every fsync fails with EIO (undone when ``monkeypatch`` unwinds)."""

    def fsync(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "fsync", fsync)
