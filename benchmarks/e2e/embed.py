"""The two library workloads: no service, no WAL, the engine does all the work.

``embed_event`` replays every workload query one event per ``apply`` through
the fused per-event engine; ``embed_batch`` replays the CORE6 queries through
the strongest batched configuration, 1000 events per ``apply_many`` + ``flush``.
Same streams and sizes for both, so batched-over-fused is a ratio of two
measured numbers.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import engines
import inputs
import oracle
from spans import Tracer, fastest, geomean, peak_rss_mb, percentile

EVENT, BATCH = "embed_event", "embed_batch"

#: Per-call latency samples a part's replay is cut into (event mode): enough
#: for a p95 with ten samples beyond it, few enough that view reads stay cheap.
CHUNKS_PER_QUERY = 200
#: ... of at least this many events each.  A chunk of one event is the cost of
#: its relation's trigger (a Part insert, a Lineitem insert): two or three
#: modes, and a median that jumps between them from seed to seed.
MIN_CHUNK_EVENTS = 8


@dataclass
class QueryPass:
    """What one replay of one part of one query measured."""

    setup_s: float
    events: int
    chunk_s: list  # per chunk: time inside the engine calls
    loop_s: float  # the replay loop's own clock (what tracing adds shows here)
    ack_ms: list
    query_ms: list
    fresh_ms: list
    state_bytes: int
    map_entries: int
    recovery_s: float
    persisted_bytes: int
    restored_equal: bool
    views: dict = field(default_factory=dict)
    prefix_views: dict | None = None
    statistics: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.chunk_s)


def query_names(mode: str) -> list[str]:
    if mode == BATCH:
        return list(inputs.FROZEN["embed_batch"]["queries"])
    return list(inputs.FROZEN["queries"])


def build_engine(mode: str, query_input, tracer: Tracer | None = None, program=None):
    """Parse, compile (unless ``program`` is given), build and load statics;
    ``(engine, program, seconds)``."""
    spec = query_input.spec
    call = tracer.call if tracer else (lambda _name, fn, *args: fn(*args))
    started = perf_counter()
    if program is None:
        translated = call("sql.parse", spec.query_factory)
        program = call("compiler.compile", engines.compile_translated, translated)
    if mode == BATCH:
        batch_size = inputs.FROZEN["embed_batch"]["batch_size"]
        engine = call("exec.build", engines.batched_engine, program, batch_size)
    else:
        engine = call("codegen.build", engines.fused_engine, program)
    call("runtime.load_static", engines.load_statics, engine, program,
         query_input.static_tables)
    return engine, program, perf_counter() - started


def replay(mode: str, query_input, first: bool = False, tracer: Tracer | None = None,
           smoke: bool = False) -> QueryPass:
    """One fresh engine, one pass over one part of a query's stream.

    The stream is cut into chunks (``CHUNKS_PER_QUERY`` per part in event
    mode, the frozen batch size in batch mode), the same on every pass, so a
    chunk's time on one pass is a repeat of its time on another.  Each
    chunk's calls are timed together, then the first view is read: the read
    is outside the rate, and gives the query and freshness samples.  The
    ``first`` pass also captures every view once the oracle prefix is in
    (event mode) and sizes what a checkpoint persists.
    """
    # Parts of one query share its program; part 0 pays for compiling it.
    engine, program, setup_s = build_engine(
        mode, query_input, tracer, program=query_input.program if query_input.part else None)
    events = query_input.events
    prefix = prefix_of(query_input, smoke) if mode == EVENT else 0
    view = sorted(program.roots)[0]
    read = engine.result_dict
    if mode == BATCH:
        size = inputs.FROZEN["embed_batch"]["batch_size"]
    else:
        size = max(MIN_CHUNK_EVENTS, len(events) // CHUNKS_PER_QUERY)
    bounds = sorted(set(range(0, len(events), size)) | {len(events)} | ({prefix} if prefix else set()))
    chunk_s, ack_ms, query_ms, fresh_ms = [], [], [], []
    prefix_views = None
    loop = 0.0
    for index, (low, high) in enumerate(zip(bounds, bounds[1:])):
        chunk = events[low:high]
        if tracer is not None:
            started = perf_counter()
            elapsed = _traced_chunk(mode, engine, chunk, tracer, index)
            loop += perf_counter() - started
        elif mode == BATCH:
            started = perf_counter()
            engine.apply_many(chunk)
            engine.flush()
            elapsed = perf_counter() - started
        else:
            apply = engine.apply
            started = perf_counter()
            for event in chunk:
                apply(event)
            elapsed = perf_counter() - started
        started = perf_counter()
        if tracer is not None:
            tracer.call("runtime.result_dict", read, view, batch=index)
        else:
            read(view)
        reading = perf_counter() - started
        per_call = elapsed if mode == BATCH else elapsed / len(chunk)
        chunk_s.append(elapsed)
        ack_ms.append(per_call * 1e3)
        query_ms.append(reading * 1e3)
        fresh_ms.append((per_call + reading) * 1e3)
        if first and high == prefix:
            prefix_views = {
                root: oracle.view_items(engine.view(root)) for root in program.roots
            }

    views = {
        root: (program.root_map(root).keys, engine.result_dict(root))
        for root in program.roots
    }
    state_bytes = engine.memory_bytes()
    recovery_s, persisted_bytes, restored_equal = 0.0, 0, True
    if tracer is None:
        # Library-level recovery: a fresh engine for the compiled program (compiling
        # is ``setup_s``), restored from the checkpoint state.
        state = engine.checkpoint_state()
        started = perf_counter()
        restored, _, _ = build_engine(mode, query_input, program=program)
        restored.restore_state(state)
        recovery_s = perf_counter() - started
        restored_equal = restored.result_dict(view) == views[view][1]
        if first:
            persisted_bytes = len(pickle.dumps(state, protocol=4))
    return QueryPass(
        setup_s=setup_s,
        events=len(events),
        chunk_s=chunk_s,
        loop_s=loop if tracer is not None else sum(chunk_s),
        ack_ms=ack_ms,
        query_ms=query_ms,
        fresh_ms=fresh_ms,
        state_bytes=state_bytes,
        map_entries=sum(engine.map_sizes().values()),
        recovery_s=recovery_s,
        persisted_bytes=persisted_bytes,
        restored_equal=restored_equal,
        views=views,
        prefix_views=prefix_views,
        statistics=engine.statistics() if tracer else {},
    )


def _traced_chunk(mode, engine, chunk, tracer, index) -> float:
    """The chunk's calls, one span each; returns the time inside the spans.

    Batch mode splits ``apply_many`` + ``flush`` into the engine's two public
    halves, ``stage`` (fold, columnarize) and ``apply_staged`` (kernels).
    """
    before = len(tracer.spans)
    if mode == EVENT:
        call, apply = tracer.call, engine.apply
        for event in chunk:
            call("codegen.apply", apply, event, batch=index)
    else:
        batch = tracer.call("exec.stage", engine.stage, chunk, batch=index)
        tracer.call("exec.apply_staged", engine.apply_staged, batch, batch=index)
    return sum(span[2] - span[1] for span in tracer.spans[before:])


def units_of(streams: inputs.Streams, names) -> list:
    """Every part of every query: the pieces a pass replays, each on its own engine."""
    streams.presize(names)
    return [part for name in names for part in streams.query_inputs(name)]


def run_traced(mode: str, streams: inputs.Streams, log) -> dict:
    """The traced pass: per part one replay with a span around every call into
    the engine, and right after it one untraced replay as the overhead reference."""
    names = query_names(mode)
    tracer = Tracer()
    tracer.call("workloads.stream_factory", streams.presize, names)
    units = units_of(streams, names)
    core = inputs.FROZEN["embed_batch"]["queries"]
    metrics: dict[str, float] = {}
    traced, plain, fused, spans_of = [], [], [], []
    for unit in units:
        low = len(tracer.spans)
        traced.append(replay(mode, unit, tracer=tracer))
        spans_of.append((low, len(tracer.spans)))
        plain.append(replay(mode, unit))
        if mode == BATCH:
            fused.append(replay(EVENT, unit))

    def of(name):
        return [i for i, unit in enumerate(units) if unit.name == name]

    def rate(results, name):
        return sum(results[i].events for i in of(name)) / sum(results[i].wall_s for i in of(name))

    def spans(name, label):
        return [s[2] - s[1] for i in of(name) for s in tracer.spans[slice(*spans_of[i])]
                if s[0] == label]

    events = sum(r.events for r in traced)
    whole = [i for i, unit in enumerate(units) if unit.part == 0]  # one per query
    codegen = [r.statistics.get("codegen", {}) for r in traced]
    metrics.update({
        "workloads.gen_s": streams.gen_seconds,
        "streams.events": events,
        "streams.delete_frac":
            sum(unit.delete_fraction * len(unit.events) for unit in units) / events,
        "sql.parse_s": tracer.total("sql.parse"),
        "compiler.compile_s": tracer.total("compiler.compile"),
        "compiler.statements": sum(units[i].program.statement_count() for i in whole),
        "compiler.maps": sum(units[i].program.map_count() for i in whole),
        "codegen.build_s": tracer.total("codegen.build", "exec.build"),
        "codegen.fused_kernels": sum(codegen[i].get("fused_kernels", 0) for i in whole),
        "codegen.fallback_statements":
            sum(codegen[i].get("fallback_statements", 0) for i in whole),
        "codegen.fallback_hits_per_event": sum(c.get("fallback_hits", 0) for c in codegen) / events,
        "runtime.map_entries": sum(r.map_entries for r in traced),
        "runtime.result_dict_us": median(tracer.durations("runtime.result_dict")) * 1e6,
    })
    for name in names:
        if mode == EVENT:
            metrics[f"query.{name}.rate_eps"] = rate(traced, name)
            if name in core:
                applies = [seconds * 1e6 for seconds in spans(name, "codegen.apply")]
                metrics[f"codegen.event_p50_us.{name}"] = percentile(applies, 50)
                metrics[f"codegen.event_p99_us.{name}"] = percentile(applies, 99)
            continue
        replayed = sum(traced[i].events for i in of(name))
        batching = [traced[i].statistics["batching"] for i in of(name)]
        metrics.update({
            f"query.{name}.rate_eps": rate(fused, name),
            f"exec.rate_eps.{name}": rate(traced, name),
            f"exec.batch_over_fused.{name}": rate(plain, name) / rate(fused, name),
            f"exec.stage_frac.{name}":
                sum(spans(name, "exec.stage")) / sum(traced[i].wall_s for i in of(name)),
            f"exec.vector_event_frac.{name}":
                sum(b["vector_events"] for b in batching) / replayed,
            f"exec.replayed_event_frac.{name}":
                sum(b["fallback_events"] for b in batching) / replayed,
        })
        metrics["exec.small_group_fallbacks"] = (
            metrics.get("exec.small_group_fallbacks", 0)
            + sum(b["vector_fallbacks"].get("small-group", 0) for b in batching)
        )
    self_times = tracer.self_times()
    engine_time = sum(v for k, v in self_times.items()
                      if k in ("codegen.apply", "exec.stage", "exec.apply_staged"))
    measured = engine_time + self_times.get("runtime.result_dict", 0.0)
    walked = sum(r.setup_s + r.loop_s + sum(r.query_ms) / 1e3 for r in traced)
    metrics.update({
        "trace.coverage": sum(v for k, v in self_times.items()
                              if k != "workloads.stream_factory") / walked,
        "trace.overhead_frac":
            sum(r.loop_s for r in traced) / sum(r.wall_s for r in plain) - 1.0,
        "trace.engine_share": engine_time / measured,
    })
    log(f"  traced {events} events in {len(tracer.spans)} spans")
    return {"metrics": metrics, "tracer": tracer, "attempted": events, "failed": 0,
            "problems": []}


def run(mode: str, streams: inputs.Streams, seconds: float, log) -> dict:
    """The untraced workload: passes over every part of the query set until
    ``seconds`` is used; each timed step is reported at its fastest pass."""
    names = query_names(mode)
    units = units_of(streams, names)
    of = {name: [i for i, unit in enumerate(units) if unit.name == name] for name in names}
    attempted = failed = 0
    problems: list[str] = []
    for name in names:
        parts = [units[i] for i in of[name]]
        frozen = inputs.frozen_check(inputs.FROZEN["queries"][name], streams.seed, parts,
                                     streams.smoke)
        log(f"  input {name:6s} parts={len(parts)} events={sum(len(p.events) for p in parts):6d} "
            f"crc32={'+'.join(p.checksum for p in parts)} frozen={frozen}")
        if frozen.startswith("MISMATCH"):
            failed += 1
            problems.append(f"{name}: generated stream differs from the frozen one: {frozen}")
    expected = None
    passes: list[list[QueryPass]] = []
    measured = longest = rss_mb = 0.0
    while True:
        pass_started = perf_counter()
        first = not passes
        results = [replay(mode, unit, first=first, smoke=streams.smoke) for unit in units]
        passes.append(results)
        pass_seconds = perf_counter() - pass_started
        if first:
            # Streams and engines are in; what the oracle allocates is the benchmark's.
            rss_mb = peak_rss_mb("self")
            expected = [
                oracle.recompute(unit.name, oracle.fold(unit.events))
                if unit.name in oracle.RECOMPUTE else None for unit in units
            ]
        for unit, result, want in zip(units, results, expected):
            attempted += result.events + 1
            if not result.restored_equal:
                failed += 1
                problems.append(f"{unit.name}: restored engine disagrees with the original")
            if want is not None:
                attempted += sum(len(entries) for _, entries in result.views.values())
                found = oracle.recompute_mismatches(unit.name, want, result.views)
                failed += len(found)
                problems += found
            if result.prefix_views is not None:
                attempted += sum(len(v) for v in result.prefix_views.values()) + 1
                found = oracle.reference_mismatches(
                    unit, unit.events[:prefix_of(unit, streams.smoke)], result.prefix_views)
                failed += len(found)
                problems += found
            result.views = result.prefix_views = None  # checked; free the memory
        log(f"  pass {len(passes)}: {pass_seconds:.2f}s replay, "
            f"{perf_counter() - pass_started - pass_seconds:.2f}s checks")
        measured += pass_seconds
        longest = max(longest, pass_seconds)
        if measured + longest > seconds:
            break

    state = {sum(r.state_bytes for r in results) for results in passes}
    if len(state) != 1:
        failed += 1
        problems.append(f"state size differs between passes: {sorted(state)}")

    def best(attribute, name):
        """A query's chunks, parts pooled, each at its fastest pass."""
        return [x for i in of[name]
                for x in fastest([getattr(results[i], attribute) for results in passes])]

    def per_query(attribute, q):
        return geomean(percentile(best(attribute, name), q) for name in names)

    def summed(attribute):
        """Per part the fastest pass, summed over the parts."""
        return sum(min(getattr(results[i], attribute) for results in passes)
                   for i in range(len(units)))

    replayed = {name: sum(len(units[i].events) for i in of[name]) for name in names}
    walls = {name: sum(best("chunk_s", name)) for name in names}
    rates = {name: replayed[name] / walls[name] for name in names}
    metrics = {
        "setup_s": summed("setup_s"),
        "refresh_rate_eps": geomean(rates.values()),
        "ingest_rate_eps": sum(replayed.values()) / sum(walls.values()),
        "state_mb": max(state) / 1e6,
        "ack_p50_ms": per_query("ack_ms", 50),
        "ack_p95_ms": per_query("ack_ms", 95),
        "freshness_p50_ms": per_query("fresh_ms", 50),
        "freshness_p95_ms": per_query("fresh_ms", 95),
        "query_p50_ms": per_query("query_ms", 50),
        "query_p95_ms": per_query("query_ms", 95),
        "recovery_s": summed("recovery_s"),
        "wal_write_amp": sum(r.persisted_bytes for r in passes[0])
        / sum(unit.wire_bytes for unit in units),
        "server_rss_mb": rss_mb,
    }
    chunks = sum(len(r.chunk_s) for r in passes[0])
    log(f"  passes={len(passes)} parts={len(units)} timed chunks per pass={chunks}")
    for name in names:
        log(f"  rate {name:6s} {rates[name]:12.1f} events/s  ({walls[name]:.3f}s a pass)")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


def prefix_of(query_input, smoke: bool) -> int:
    """Events the nested-loop reference is given: what it evaluates in about 0.2 s.
    Part 0 of a query carries the check."""
    if query_input.part:
        return 0
    frozen = inputs.FROZEN["queries"][query_input.name]["oracle_prefix"]
    return min(len(query_input.events), max(4, frozen // 3) if smoke else frozen)
