"""The traced pass of the served workloads: the server's work, walked by hand.

Each batch goes through the sequence the server runs, one span per call into
a layer's public function: client encode -> wire decode -> WAL append (+ sync)
-> engine apply -> view snapshots -> ``diff_results`` -> publish -> poll +
encode -> query + encode.  Beside the hand walk, batch by batch, the same
events go to whole ``ViewService`` instances (durable, bare, with telemetry)
and to a bare engine, each with its own state: every ratio between them is
then a ratio of neighbours in time, not of two passes minutes apart.  One real
served run gives the share no in-process stage explains
(``server.residual_frac``).
"""

from __future__ import annotations

import shutil
from statistics import median
from time import perf_counter

import engines
import inputs
import oracle
import served
from spans import Tracer, percentile

#: Stages of the hand walk that ``ViewService.ingest``/``query`` also run
#: (encode and decode happen in the client and in the server's wire adapter).
SERVICE_STAGES = ("wal.append", "wal.sync", "engine.stage", "engine.apply",
                  "runtime.result_dict", "service.diff", "subscriptions.publish",
                  "query.result_dict")
ENGINE_STAGES = ("engine.stage", "engine.apply")
HAND_STAGES = SERVICE_STAGES + ("client.encode", "wire.decode", "wire.ack",
                                "subscriptions.poll_encode", "wire.snapshot_encode")


def build(query_input, cfg, telemetry=None):
    """A fresh engine as the server would host it, statics loaded."""
    program = engines.compile_translated(query_input.spec.query_factory())
    engine = engines.service_engine(program, cfg, telemetry)
    engines.load_statics(engine, program, query_input.static_tables)
    return engine, program


class ServiceLane:
    """A whole ``ViewService`` fed the walk's batches, one span per public call."""

    def __init__(self, name, query_input, cfg, directory=None, subscribed=False, cuts=(),
                 telemetry=None) -> None:
        engine, program = build(query_input, cfg, telemetry)
        self.name = name
        self.view = cfg.get("view") or sorted(program.roots)[0]
        self.query_every = cfg["query_every"] if directory is not None else 0
        self.cuts = cuts
        kwargs = {}
        if directory is not None:
            kwargs = {"wal_dir": directory / "wal", "fsync_every": 1}
            if cuts:
                kwargs["checkpoint_dir"] = directory / "ckpt"
        self.service = engines.ViewService(engine, telemetry=telemetry, **kwargs)
        self.subscription = self.service.subscribe(self.view) if subscribed else None

    def step(self, tracer: Tracer, batch, index: int) -> None:
        tracer.call(f"{self.name}.ingest", self.service.ingest, batch, str(index), batch=index)
        if self.subscription is not None:
            self.subscription.poll()
        if self.query_every and (index + 1) % self.query_every == 0:
            tracer.call(f"{self.name}.query", self.service.query, self.view, batch=index)
        if index + 1 in self.cuts:
            tracer.call(f"{self.name}.checkpoint", self.service.checkpoint, batch=index)


def walk(tracer: Tracer, query_input, cfg, batches, directory, subscribed: bool,
         cuts=(), telemetry_lane: bool = False) -> dict:
    """The hand walk and its lanes; returns counts read at the stage boundaries."""
    engine, program = build(query_input, cfg)
    view = cfg.get("view") or sorted(program.roots)[0]
    # fsync_every=None: the log never syncs on its own, so append and sync are
    # two spans; the walk syncs after every batch, like ``--fsync-every 1``.
    wal = engines.WriteAheadLog(
        directory / "walk-wal", **engines.accepted(engines.WriteAheadLog, fsync_every=None))
    registry = engines.SubscriptionRegistry()
    subscription = registry.subscribe(view) if subscribed else None
    lanes = [
        ServiceLane("service", query_input, cfg, directory / "service", subscribed, cuts),
        ServiceLane("bare", query_input, cfg),
    ]
    if telemetry_lane:
        lanes.append(ServiceLane("telemetry", query_input, cfg, directory / "telemetry",
                                 subscribed, telemetry=engines.Telemetry(enabled=True)))
    bare_engine, _ = build(query_input, cfg)
    staged = cfg["engine"] == "batched"
    call = tracer.call
    version = wire_bytes = notifications = 0
    wall = 0.0
    for index, batch in enumerate(batches):
        started = perf_counter()
        line = call("client.encode", _encode_request, batch, index, batch=index)
        wire_bytes += len(line)
        events = call("wire.decode", _decode_request, line, batch=index)
        call("wal.append", wal.append, version, events, str(index), batch=index)
        call("wal.sync", wal.sync, batch=index)
        if subscribed:
            before = call("runtime.result_dict", engine.result_dict, view, batch=index)
        if staged:
            prepared = call("engine.stage", engine.stage, events, batch=index)
            call("engine.apply", engine.apply_staged, prepared, batch=index)
        else:
            call("engine.apply", _apply, engine, events, batch=index)
        version += len(events)
        if subscribed:
            after = call("runtime.result_dict", engine.result_dict, view, batch=index)
            changes = call("service.diff", engines.diff_results, before, after, batch=index)
            notifications += call("subscriptions.publish", registry.publish, view, version,
                                  changes, batch=index)
            call("subscriptions.poll_encode", _poll_encode, subscription, batch=index)
        call("wire.ack", _ack, version, len(events), batch=index)
        if (index + 1) % cfg["query_every"] == 0:
            entries = call("query.result_dict", engine.result_dict, view, batch=index)
            call("wire.snapshot_encode", _encode_snapshot, view, version, entries, batch=index)
        wall += perf_counter() - started
        for lane in lanes:
            lane.step(tracer, batch, index)
        call("bare.engine", _apply, bare_engine, batch, batch=index)
    statistics = wal.stats()
    wal.close()
    for lane in lanes:
        lane.service.close()
    replay = engines.WriteAheadLog(directory / "walk-wal")
    replayed = call("wal.replay", lambda: sum(record.count for record in replay.replay(0)))
    replay.close()
    checkpoint_dir = directory / "service" / "ckpt"
    return {"events": version, "wall": wall, "wire_bytes": wire_bytes,
            "notifications": notifications, "wal": statistics, "replayed": replayed,
            "batching": engine.statistics().get("batching", {}),
            "checkpoint_bytes":
                sum(p.stat().st_size for p in checkpoint_dir.iterdir()) if cuts else 0}


def _encode_request(batch, index):
    return engines.dump_line({
        "op": "ingest",
        "events": [engines.event_to_dict(event) for event in batch],
        "batch_id": str(index),
    })


def _decode_request(line):
    request = engines.parse_line(line, context="request")
    return [engines.event_from_dict(payload) for payload in request["events"]]


def _apply(engine, events):
    engine.apply_many(events)
    engine.flush()


def _poll_encode(subscription):
    return [engines.dump_line({"type": "delta", **n.as_dict()}) for n in subscription.poll()]


def _ack(version, count):
    line = engines.dump_line({"ok": True, "count": count, "version": version,
                              "notifications": 0, "deduplicated": False})
    return engines.parse_line(line, context="response")


def _encode_snapshot(view, version, entries):
    return engines.dump_line({"ok": True, "version": version, "view": view,
                              "rows": engines.encode_entries(entries)})


def recover_in_process(query_input, cfg, wal_dir, ckpt_dir, scratch) -> dict:
    """``ViewService.recover()`` on copies of a killed server's directories:
    once on the checkpoint chain alone, once with the WAL tail."""
    report = {}
    for label, with_wal in (("chain", False), ("full", True)):
        target = scratch / f"recover-{label}"
        shutil.copytree(ckpt_dir, target / "ckpt")
        kwargs = {"checkpoint_dir": target / "ckpt"}
        if with_wal:
            shutil.copytree(wal_dir, target / "wal")
            kwargs.update(wal_dir=target / "wal", fsync_every=1)
        engine, _ = build(query_input, cfg)
        service = engines.ViewService(engine, **kwargs)
        started = perf_counter()
        outcome = service.recover()
        report[label] = (perf_counter() - started, outcome["version"])
        service.close()
    (chain_s, chain_version), (full_s, full_version) = report["chain"], report["full"]
    return {"recover.restore_s": chain_s,
            "recover.replay_s": max(0.0, full_s - chain_s),
            "recover.replayed_events": full_version - chain_version}


def walk_metrics(tracer: Tracer, counts: dict, batches: int, served_wall: float) -> dict:
    """Per-layer numbers of one walk; ``served_wall`` is the real server's wall
    for the same batches."""
    events = counts["events"]
    total, durations = tracer.total, tracer.durations
    syncs = [d * 1e3 for d in durations("wal.sync")]
    service_wall = total("service.ingest", "service.query")
    hand = total(*HAND_STAGES)
    # Same batch, two neighbours in time: a bare ViewService and a bare engine.
    overheads = [a - b for a, b in zip(durations("bare.ingest"), durations("bare.engine"))]
    return {
        "client.encode_us_per_event": total("client.encode") / events * 1e6,
        "wire.decode_us_per_event": total("wire.decode") / events * 1e6,
        "wire.bytes_per_event": counts["wire_bytes"] / events,
        "wire.snapshot_encode_us": median(durations("wire.snapshot_encode")) * 1e6,
        "wal.append_us_per_event": total("wal.append") / events * 1e6,
        "wal.fsync_p50_ms": percentile(syncs, 50),
        "wal.fsync_p95_ms": percentile(syncs, 95),
        "wal.bytes_per_event": counts["wal"]["bytes_appended"] / events,
        "wal.fsyncs": counts["wal"]["fsyncs"],
        "wal.replay_us_per_event": total("wal.replay") / counts["replayed"] * 1e6,
        "service.ingest_overhead_us_per_batch": median(overheads) * 1e6,
        "service.diff_us_per_batch": total("service.diff") / batches * 1e6,
        "service.query_us": median(durations("service.query")) * 1e6,
        "subscriptions.publish_us_per_batch": total("subscriptions.publish") / batches * 1e6,
        "subscriptions.poll_encode_us_per_batch":
            total("subscriptions.poll_encode") / batches * 1e6,
        "subscriptions.notifications_per_batch": counts["notifications"] / batches,
        "runtime.result_dict_us": median(durations("runtime.result_dict") or [0.0]) * 1e6,
        "trace.coverage": total(*SERVICE_STAGES) / service_wall,
        "trace.overhead_frac": counts["wall"] / hand - 1.0,
        "trace.engine_share": total(*ENGINE_STAGES) / served_wall,
        "server.residual_frac": 1.0 - hand / served_wall,
        "streams.events": events,
    }


def traced_bulk(streams: inputs.Streams, log) -> dict:
    cfg, query_input, batches, cuts = served.bulk_inputs(streams)
    sent = [event for batch in batches for event in batch]
    expected = oracle.recompute(cfg["query"], oracle.fold(sent))
    tracer = Tracer()
    with served.Harness() as harness:
        kept = harness.directory("killed")

        def keep(wal_dir, ckpt_dir):
            shutil.copytree(wal_dir, kept / "wal")
            shutil.copytree(ckpt_dir, kept / "ckpt")

        rep = served.bulk_rep(harness, "traced", cfg, query_input.program, batches, cuts,
                              expected, after_kill=keep)
        log(f"  served: ingest {rep.wall_s:.2f}s recovery {rep.recovery_s:.2f}s")
        recovery = recover_in_process(query_input, cfg, kept / "wal", kept / "ckpt",
                                      harness.directory("recover"))
        counts = walk(tracer, query_input, cfg, batches, harness.directory("walk"),
                      subscribed=False, cuts=cuts)
    metrics = walk_metrics(tracer, counts, len(batches), rep.wall_s - sum(rep.checkpoint_s))
    metrics.update(recovery)
    checkpoints = tracer.durations("service.checkpoint")
    batching = counts["batching"]
    metrics.update({
        "checkpoint.full_s": checkpoints[0],
        "checkpoint.delta_s": median(checkpoints[1:]) if len(checkpoints) > 1 else 0.0,
        "checkpoint.bytes": counts["checkpoint_bytes"],
        "checkpoint.stall_ack_ms": max(rep.stall_ack_ms),
        "recover.process_start_s": rep.setup_s,
        "server.ack_p99_ms": percentile(rep.ack_ms, 99),
        f"exec.vector_event_frac.{cfg['query']}":
            batching.get("vector_events", 0) / counts["events"],
        f"exec.replayed_event_frac.{cfg['query']}":
            batching.get("fallback_events", 0) / counts["events"],
        "exec.small_group_fallbacks": batching.get("vector_fallbacks", {}).get("small-group", 0),
        "streams.delete_frac": query_input.delete_fraction,
        "workloads.gen_s": streams.gen_seconds,
    })
    return {"metrics": metrics, "tracer": tracer, "attempted": rep.attempted,
            "failed": len(rep.problems), "problems": rep.problems}


def traced_live(streams: inputs.Streams, seconds: float, log) -> dict:
    cfg, query_input, batches = served.live_inputs(streams)
    result = served.run_live(streams, seconds, log)
    steps = {step.label: step for step in result["steps"]}
    sample = batches[:sum(step.batches for step in steps.values())]
    tracer = Tracer()
    with served.Harness() as harness:
        counts = walk(tracer, query_input, cfg, sample, harness.directory("walk"),
                      subscribed=True, telemetry_lane=True)
    # The served side of the comparison: time per batch at closed-loop capacity.
    closed_batch_s = cfg["batch_size"] / result["metrics"]["ingest_rate_eps"]
    metrics = walk_metrics(tracer, counts, len(sample), closed_batch_s * len(sample))
    limit = cfg["freshness_limit_ms"]
    mid = steps["mid"]
    metrics.update({
        "telemetry.on_over_off": tracer.total("telemetry.ingest", "telemetry.query")
        / tracer.total("service.ingest", "service.query"),
        "server.ack_p99_ms": percentile(mid.ack_ms, 99),
        "server.freshness_p99_ms": percentile(mid.fresh_ms, 99),
        "server.freshness_p95_ms.low": percentile(steps["low"].fresh_ms, 95),
        "server.freshness_p95_ms.high": percentile(steps["high"].fresh_ms, 95),
        "server.rate_steps_within_limit": sum(
            1 for step in steps.values()
            if percentile(step.fresh_ms, 95) <= limit and step.tail_ack_ms <= limit
        ),
        "server.gen_late_p95_ms": max(step.gen_late_p95_ms() for step in steps.values()),
        "recover.process_start_s": median(result["setups"]),
        "streams.delete_frac": query_input.delete_fraction,
        "workloads.gen_s": streams.gen_seconds,
    })
    return {"metrics": metrics, "tracer": tracer, "attempted": result["attempted"],
            "failed": result["failed"], "problems": result["problems"]}
