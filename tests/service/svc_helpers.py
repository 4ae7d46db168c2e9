"""Helper functions shared by the serving-layer tests (imported by name)."""

from types import SimpleNamespace

from repro.compiler.hoivm import compile_query
from repro.runtime.engine import IncrementalEngine
from repro.service import ViewService, engine_for_mode
from repro.workloads import workload


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


#: build_service kwargs routed to ViewService instead of engine_for_mode.
_SERVICE_KWARGS = frozenset({"wal_dir", "fsync_every", "fsync_interval_ms"})


def build_service(fixture, mode="incremental", checkpoint_dir=None, **kwargs):
    """A service over one workload fixture with statics loaded."""
    service_kwargs = {k: kwargs.pop(k) for k in list(kwargs) if k in _SERVICE_KWARGS}
    service = ViewService(
        engine_for_mode(fixture.program, mode, **kwargs),
        checkpoint_dir=checkpoint_dir,
        **service_kwargs,
    )
    load_statics(service, fixture.program, fixture.statics)
    return service


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
