"""Command-line entry point for the view service.

Serve a workload query over TCP, durably (recovering from the newest intact
checkpoint and the write-ahead log when they hold anything)::

    python -m repro.service serve --query Q1 --engine batched --batch-size 100 \\
        --checkpoint-dir /tmp/q1-ckpt --wal-dir /tmp/q1-wal --port 7641

Replay a persisted event stream through a service offline, print the final
views and leave a checkpoint behind::

    python -m repro.service replay stream.jsonl --query Q1 \\
        --checkpoint-dir /tmp/q1-ckpt --checkpoint-every 1000

The ``--engine`` flag selects the execution mode (``compiled``, the default
— trigger programs lowered to specialized Python by ``repro.codegen`` —
``batched``, ``partitioned``, or ``incremental``, the AST interpreter kept as
the correctness oracle); ``--batch-size``, ``--partitions`` and ``--backend``
configure it exactly like the benchmark CLI.  ``--provenance-depth N`` keeps
per-view mutation-history rings (served through the ``explain-row``
operation), and ``--audit`` attaches the online view auditor, re-deriving
sampled view rows from mirrored base data every ``--audit-every`` events.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.compiler.hoivm import compile_query
from repro.errors import ExecutionError, RuntimeEngineError, ServiceError
from repro.service.core import (
    DEFAULT_INGEST_BATCH,
    ENGINE_MODES,
    ViewService,
    engine_for_mode,
)
from repro.service.server import ViewServer
from repro.workloads import all_workloads, workload


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--query", default="Q1",
                        help="workload query to serve (see: python -m repro.bench list)")
    parser.add_argument("--engine", choices=list(ENGINE_MODES), default="compiled",
                        help="execution mode hosting the views ('incremental' is "
                             "the AST interpreter, kept as the correctness oracle)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="delta batch size (batched/partitioned engines)")
    parser.add_argument("--partitions", type=int, default=None,
                        help="partition count (partitioned engine)")
    parser.add_argument("--backend", choices=["sequential", "process", "vector"],
                        default="sequential",
                        help="partitioned-engine executor (sequential/process); "
                             "'vector' is accepted only with --engine batched "
                             "and does nothing (the batched engine vectorizes "
                             "large groups whenever numpy is present)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for durable checkpoints")
    parser.add_argument("--wal-dir", default=None,
                        help="directory for the write-ahead event log (enables "
                             "crash recovery past the last checkpoint)")
    parser.add_argument("--fsync-every", type=int, default=1,
                        help="group-commit bound: fsync the WAL once per this "
                             "many ingested batches (1 = every batch)")
    parser.add_argument("--fsync-interval-ms", type=float, default=None,
                        help="also fsync when this many milliseconds passed "
                             "since the last sync")
    parser.add_argument("--fresh", action="store_true",
                        help="delete existing checkpoints and reset the WAL "
                             "instead of recovering")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the metrics registry (also: REPRO_TELEMETRY=1)")
    parser.add_argument("--trace-file", default=None,
                        help="JSONL span-trace sink (implies --telemetry)")
    parser.add_argument("--trace-sample", type=float, default=1.0,
                        help="fraction of root spans to record (0..1)")
    parser.add_argument("--provenance-depth", type=int, default=None,
                        help="enable row provenance with this per-view history "
                             "depth (serves the explain-row operation)")
    parser.add_argument("--audit", action="store_true",
                        help="enable the online view auditor (sampled reference "
                             "re-derivation against live views)")
    parser.add_argument("--audit-every", type=int, default=None,
                        help="audit once per this many ingested events")
    parser.add_argument("--audit-sample", type=int, default=None,
                        help="view rows re-derived per audit pass")
    parser.add_argument("--audit-fail-fast", action="store_true",
                        help="raise (failing the ingest) on the first divergence")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve continuously fresh materialized views.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve one workload query over TCP")
    _add_engine_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7641, help="0 picks a free port")

    replay = sub.add_parser("replay", help="replay a .csv/.jsonl event stream offline")
    replay.add_argument("source", help="event stream file (.csv or .jsonl)")
    _add_engine_arguments(replay)
    replay.add_argument("--ingest-batch", type=int, default=DEFAULT_INGEST_BATCH,
                        help="events per atomic ingest batch")
    replay.add_argument("--checkpoint-every", type=int, default=None,
                        help="checkpoint after this many applied events")
    replay.add_argument("--limit", type=int, default=10,
                        help="rows to print per view")

    sub.add_parser("list", help="list the servable workload queries")
    return parser


def build_service(
    args: argparse.Namespace,
) -> tuple[ViewService, dict | None]:
    """Compile the query, build the engine and (maybe) recover durable state.

    Returns the service plus the recovery report (``None`` under ``--fresh``).
    A checkpoint this build cannot load (another program's, another partition
    layout, another format) raises :class:`ServiceError` naming ``--fresh``.
    Static tables are loaded only when nothing was restored: a restored
    engine state already contains them, and loading twice would double their
    multiplicity — :meth:`ViewService.recover` invokes the loader callback
    exactly on that cold-start path.
    """
    spec = workload(args.query)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    telemetry = None
    if args.telemetry or args.trace_file:
        from repro.telemetry import configure

        telemetry = configure(
            enabled=True,
            trace_file=args.trace_file,
            trace_sample=args.trace_sample,
        )
    engine = engine_for_mode(
        program,
        mode=args.engine,
        batch_size=args.batch_size,
        partitions=args.partitions,
        backend=args.backend,
        telemetry=telemetry,
    )
    service = ViewService(
        engine,
        checkpoint_dir=args.checkpoint_dir,
        telemetry=telemetry,
        wal_dir=args.wal_dir,
        fsync_every=args.fsync_every,
        fsync_interval_ms=args.fsync_interval_ms,
    )
    # Auditing must attach before any data reaches the engine (the mirror
    # has to see every static row and event); recovery afterwards reloads the
    # mirror from the checkpoint's audit state.
    if args.audit:
        service.enable_audit(
            check_every=args.audit_every,
            sample_rows=args.audit_sample,
            fail_fast=args.audit_fail_fast,
        )

    def _load_statics() -> None:
        for relation, rows in spec.static_tables().items():
            if relation in program.static_relations:
                service.load_static(relation, rows)

    recovery = None
    if args.fresh:
        if service.wal is not None:
            service.wal.reset()
        if service.checkpoints is not None:
            service.checkpoints.reset()
        _load_statics()
    else:
        try:
            recovery = service.recover(load_statics=_load_statics)
        except (RuntimeEngineError, ExecutionError, ServiceError) as exc:
            service.close()
            raise ServiceError(
                f"cannot recover: {exc}; start with --fresh to discard the "
                "checkpoints and the log"
            ) from exc
    if args.provenance_depth is not None:
        service.enable_provenance(depth=args.provenance_depth)
    return service, recovery


def describe_recovery(recovery: dict | None) -> str | None:
    """A one-line human summary of a recovery report (``None``: nothing to say)."""
    if recovery is None:
        return None
    replayed = recovery["wal_batches_replayed"]
    if recovery["restored"]:
        message = f"restored checkpoint at version {recovery['version']}"
        if replayed:
            message += f" (including {replayed} replayed WAL batches)"
        return message
    if replayed:
        return (
            f"replayed {replayed} WAL batches; "
            f"recovered to version {recovery['version']}"
        )
    return None


async def _serve(service: ViewService, host: str, port: int) -> None:
    server = ViewServer(service, host, port)
    await server.start()
    print(f"serving {sorted(service.program.roots)} on {server.host}:{server.port} "
          f"(version {service.version})", flush=True)
    await server.serve_until_stopped()
    print("server stopped", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, spec in sorted(all_workloads().items()):
            print(f"{name:8s} {spec.family:8s} {spec.description}")
        return 0

    if args.backend == "vector" and args.engine != "batched":
        parser.error(
            f"--backend vector is only accepted with --engine batched "
            f"(got --engine {args.engine})"
        )

    if args.command in ("serve", "replay"):
        try:
            service, recovery = build_service(args)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "serve":
        recovered = describe_recovery(recovery)
        if recovered is not None:
            print(recovered, flush=True)
        try:
            asyncio.run(_serve(service, args.host, args.port))
        except KeyboardInterrupt:
            pass
        finally:
            service.close()
        return 0

    if args.command == "replay":
        try:
            recovered = describe_recovery(recovery)
            if recovered is not None:
                print(recovered)
            applied = service.replay(
                args.source,
                batch_size=args.ingest_batch,
                checkpoint_every=args.checkpoint_every,
            )
            print(f"replayed {applied} events; service version {service.version} "
                  f"({args.engine} engine)")
            for view in service.views():
                snapshot = service.query(view)
                print(f"view {view} [{', '.join(snapshot.columns)}]: "
                      f"{len(snapshot.entries)} rows")
                shown = sorted(snapshot.entries.items(), key=lambda kv: repr(kv[0]))
                for key, value in shown[: args.limit]:
                    print(f"  {key!r} -> {value!r}")
                if len(shown) > args.limit:
                    print(f"  ... {len(shown) - args.limit} more")
            if service.checkpoints is not None:
                info = service.checkpoint()
                print(f"checkpoint saved: {info.path} (version {info.version})")
        finally:
            service.close()
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
