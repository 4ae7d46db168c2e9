"""The two served workloads: the system under test is a separate process.

``serve_bulk`` pushes 1000-event Q1 batches through one closed-loop client
into a durable (WAL + checkpoints) batched server, kills it with SIGKILL after
the last ack and times the restart.  ``serve_live`` drives a compiled BSV
server on an open-loop schedule at three frozen rates while a second
connection holds a subscription, then measures closed-loop capacity; short
server lifetimes beside it give the cold starts and the recoveries.

Load comes from this process alone: the main thread plus, in ``serve_live``,
one subscriber thread; at most two TCP connections are open at a time.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import engines
import inputs
import oracle
from spans import fastest, peak_rss_mb, per_window, percentile, quietest

OUT = inputs.HERE / "out"

#: Every wait on a server is bounded by one of these (seconds).
START_TIMEOUT = 60.0
OP_TIMEOUT = 60.0
EXIT_TIMEOUT = 15.0
DELIVERY_TIMEOUT = 5.0


class HarnessError(RuntimeError):
    """A server hung, died or answered wrongly; carries its captured output."""


class Server:
    """One ``python -m repro.service serve`` process with captured output."""

    def __init__(self, argv: list[str], log_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(engines.SRC), PYTHONHASHSEED="0")
        env.pop("REPRO_TELEMETRY", None)  # end-to-end numbers run with telemetry off
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.spawned = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv], stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env, cwd=str(engines.ROOT),
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def output(self) -> str:
        return self.log_path.read_text(errors="replace")[-4000:]

    def fail(self, what: str) -> HarnessError:
        return HarnessError(f"{what}\n--- server output ---\n{self.output()}")

    def address(self) -> tuple[str, int]:
        """Block until the ``serving ... on host:port`` line appears."""
        deadline = perf_counter() + START_TIMEOUT
        while perf_counter() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving ") and " on " in line:
                    host, port = line.split(" on ")[1].split(" ")[0].rsplit(":", 1)
                    return host, int(port)
            if self.process.poll() is not None:
                raise self.fail(f"server exited with {self.process.returncode} before serving")
            time.sleep(0.005)
        raise self.fail(f"server did not start serving within {START_TIMEOUT:.0f}s")

    def connect(self):
        """A client on a live server; returns ``(client, seconds since spawn)``
        measured at the first answered ping."""
        host, port = self.address()
        client = engines.ServiceClient(host, port, timeout=OP_TIMEOUT, retries=0)
        client.ping()
        return client, perf_counter() - self.spawned

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=EXIT_TIMEOUT)
        self._log.close()

    def shutdown(self, client) -> None:
        """Orderly stop through the wire; falls back to SIGKILL."""
        try:
            client.shutdown()
            client.close()
            self.process.wait(timeout=EXIT_TIMEOUT)
        except Exception as exc:  # the run is over either way; report, then clean up
            self.kill()
            raise self.fail(f"server did not shut down cleanly: {exc!r}") from exc
        self._log.close()


class Harness:
    """Owns the temp root and every server of a run; cleans both up on exit."""

    def __init__(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="servers-", dir=OUT))
        self.servers: list[Server] = []

    def spawn(self, argv: list[str], label: str) -> Server:
        server = Server(argv, self.root / f"{label}.log")
        self.servers.append(server)
        return server

    def directory(self, name: str) -> Path:
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc) -> None:
        for server in self.servers:
            try:
                server.kill()
            except (OSError, subprocess.TimeoutExpired):
                pass
        shutil.rmtree(self.root, ignore_errors=True)


def call(server: Server, what: str, fn, *args, **kwargs):
    """A client operation; a failure raises with the server's output attached."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise server.fail(f"{what} failed: {exc!r}") from exc


def served_views(server: Server, client, program) -> dict:
    """Every root view as ``root -> (columns, entries)`` plus the version seen."""
    views = {}
    for root in sorted(program.roots):
        snapshot = call(server, f"query {root}", client.query, root)
        views[root] = (snapshot.columns, snapshot.entries)
    return views


def restart(harness: Harness, argv: list[str], label: str, acked: int):
    """Spawn on the same directories; ``(server, client, seconds until the acked
    version is served)``."""
    server = harness.spawn(argv, label)
    client, _ = server.connect()
    deadline = perf_counter() + START_TIMEOUT
    version = call(server, "ping", client.ping)
    while version != acked:
        if perf_counter() > deadline:
            raise server.fail(f"restarted server serves version {version}, acked was {acked}")
        time.sleep(0.01)
        version = call(server, "ping", client.ping)
    return server, client, perf_counter() - server.spawned


# -- serve_bulk ------------------------------------------------------------------


@dataclass
class BulkRep:
    setup_s: float = 0.0
    events: int = 0
    wall_s: float = 0.0
    ack_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    fresh_ms: list = field(default_factory=list)
    checkpoint_s: list = field(default_factory=list)
    stall_ack_ms: list = field(default_factory=list)
    state_bytes: int = 0
    wal_bytes: int = 0
    rss_mb: float = 0.0
    recovery_s: float = 0.0
    attempted: int = 0
    problems: list = field(default_factory=list)
    dirs: tuple = ()


def bulk_inputs(streams: inputs.Streams):
    cfg = inputs.FROZEN["serve_bulk"]
    query_input = streams.query_input(cfg["query"], cfg["stream"], floor=16000)
    count = streams.scaled(cfg["batches"], floor=8)
    batches = inputs.batches(query_input.events, cfg["batch_size"])[:count]
    if len(batches) < count:
        raise HarnessError(f"serve_bulk stream holds {len(batches)} batches, {count} frozen")
    cuts = [max(1, c * count // cfg["batches"]) for c in cfg["checkpoint_after"]]
    return cfg, query_input, batches, sorted(set(cuts))


def bulk_rep(harness: Harness, label: str, cfg, program, batches, cuts, expected,
             after_kill=None) -> BulkRep:
    """One server lifetime: start, ingest every batch, SIGKILL, restart, verify.

    ``after_kill(wal_dir, ckpt_dir)`` sees the directories as the kill left them.
    """
    rep = BulkRep()
    wal_dir, ckpt_dir = harness.directory(f"{label}-wal"), harness.directory(f"{label}-ckpt")
    rep.dirs = (wal_dir, ckpt_dir)
    argv = engines.serve_argv(cfg["query"], cfg["engine"], wal_dir, ckpt_dir,
                              cfg["batch_size"], cfg["backend"])
    server = harness.spawn(argv, f"{label}-a")
    client, rep.setup_s = server.connect()
    view = sorted(program.roots)[0]
    version = 0
    stalled = False
    started = perf_counter()
    for index, batch in enumerate(batches, 1):
        sent = perf_counter()
        result = call(server, f"ingest batch {index}", client.ingest, batch)
        acked = perf_counter()
        version += len(batch)
        rep.attempted += 1
        if result.count != len(batch) or result.version != version or result.deduplicated:
            rep.problems.append(f"batch {index}: acked {result}, expected version {version}")
        rep.ack_ms.append((acked - sent) * 1e3)
        if stalled:
            rep.stall_ack_ms.append((acked - sent) * 1e3)
            stalled = False
        if index % cfg["query_every"] == 0:
            snapshot = call(server, "query", client.query, view)
            answered = perf_counter()
            rep.attempted += 1
            if snapshot.version != version:
                rep.problems.append(f"query after batch {index} saw version {snapshot.version}")
            rep.query_ms.append((answered - acked) * 1e3)
            rep.fresh_ms.append((answered - sent) * 1e3)
        if index in cuts:
            cut = perf_counter()
            call(server, "checkpoint", client.checkpoint)
            rep.checkpoint_s.append(perf_counter() - cut)
            rep.attempted += 1
            stalled = True
    rep.wall_s = perf_counter() - started
    rep.events = version
    statistics = call(server, "stats", client.statistics)
    rep.state_bytes = statistics["engine"]["memory_bytes"]
    rep.wal_bytes = statistics["durability"]["wal"]["bytes_appended"]
    rep.rss_mb = peak_rss_mb(server.pid)
    client.close()
    server.kill()  # kill -9 keeps the OS page cache: this checks recovery, not fsync
    if after_kill is not None:
        after_kill(wal_dir, ckpt_dir)

    server, client, rep.recovery_s = restart(harness, argv, f"{label}-b", version)
    views = served_views(server, client, program)
    rep.attempted += 1 + sum(len(entries) for _, entries in views.values())
    rep.problems += oracle.recompute_mismatches(cfg["query"], expected, views)
    server.shutdown(client)
    return rep


def run_bulk(streams: inputs.Streams, seconds: float, log) -> dict:
    cfg, query_input, batches, cuts = bulk_inputs(streams)
    sent = [event for batch in batches for event in batch]
    log(f"  input {cfg['query']} batches={len(batches)} cuts={cuts} events={len(sent)} "
        f"crc32={query_input.checksum} "
        f"frozen={inputs.frozen_check(cfg, streams.seed, [query_input], streams.smoke)}")
    expected = oracle.recompute(cfg["query"], oracle.fold(sent))
    payload = inputs.wire_digest(sent)[1]
    reps: list[BulkRep] = []
    measured = longest = 0.0
    with Harness() as harness:
        while True:
            started = perf_counter()
            reps.append(bulk_rep(harness, f"rep{len(reps)}", cfg, query_input.program,
                                 batches, cuts, expected))
            for path in reps[-1].dirs:
                shutil.rmtree(path, ignore_errors=True)
            took = perf_counter() - started
            measured += took
            longest = max(longest, took)
            log(f"  rep {len(reps)}: {took:.2f}s (ingest {reps[-1].wall_s:.2f}s, "
                f"recovery {reps[-1].recovery_s:.2f}s)")
            if measured + longest > seconds:
                break
    problems = [p for rep in reps for p in rep.problems]
    for attribute in ("state_bytes", "wal_bytes"):
        if len({getattr(rep, attribute) for rep in reps}) != 1:
            problems.append(f"{attribute} differs between repetitions")

    def best(attribute):
        """Every lifetime sends the same batches: each operation at its fastest."""
        return fastest([getattr(rep, attribute) for rep in reps])

    ack, query, fresh = best("ack_ms"), best("query_ms"), best("fresh_ms")
    # The loop is its operations: ingests, queries and checkpoint cuts.
    rate = reps[0].events / ((sum(ack) + sum(query)) / 1e3 + sum(best("checkpoint_s")))
    log(f"  lifetimes={len(reps)}, each: ack samples={len(ack)} query samples={len(query)}")
    metrics = {
        "setup_s": min(rep.setup_s for rep in reps),
        "refresh_rate_eps": rate,
        "ingest_rate_eps": rate,
        "state_mb": reps[0].state_bytes / 1e6,
        "ack_p50_ms": percentile(ack, 50),
        "ack_p95_ms": percentile(ack, 95),
        "freshness_p50_ms": percentile(fresh, 50),
        "freshness_p95_ms": percentile(fresh, 95),
        "query_p50_ms": percentile(query, 50),
        "query_p95_ms": percentile(query, 95),
        "recovery_s": min(rep.recovery_s for rep in reps),
        "wal_write_amp": reps[0].wal_bytes / payload,
        "server_rss_mb": median(rep.rss_mb for rep in reps),
    }
    return {"metrics": metrics, "attempted": sum(rep.attempted for rep in reps),
            "failed": len(problems), "problems": problems}


# -- serve_live ------------------------------------------------------------------


@dataclass
class Step:
    """One open-loop rate step."""

    label: str
    rate_eps: float
    ack_ms: list = field(default_factory=list)
    fresh_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    tail_ack_ms: float = 0.0
    missing: int = 0
    batches: int = 0

    def gen_late_p95_ms(self) -> float:
        return percentile(self.late_ms, 95)


class Subscriber:
    """Connection B: timestamps the last delta received for each version."""

    def __init__(self, host: str, port: int, view: str) -> None:
        self.client = engines.ServiceClient(host, port, timeout=OP_TIMEOUT, retries=0)
        self.stream = self.client.subscribe(view)
        self.arrived: dict[int, float] = {}
        self.error: BaseException | None = None
        self.thread = threading.Thread(target=self._read, name="subscriber", daemon=True)
        self.thread.start()

    def _read(self) -> None:
        arrived = self.arrived
        try:
            for notification in self.stream:
                arrived[notification.version] = perf_counter()
        except Exception as exc:  # surfaced by close(); a dead socket ends the stream
            self.error = exc

    def wait_for(self, version: int) -> None:
        deadline = perf_counter() + DELIVERY_TIMEOUT
        while version not in self.arrived and perf_counter() < deadline:
            time.sleep(0.002)

    def close(self) -> None:
        """Call once the server is gone: the reader ends on the closed socket."""
        self.thread.join(timeout=EXIT_TIMEOUT)
        self.client.close()


def sleep_until(due: float) -> None:
    remaining = due - perf_counter()
    if remaining > 0:
        time.sleep(remaining)


def open_loop(server, client, subscriber, cfg, step: Step, batches, seconds, version) -> int:
    """Send ``batches`` on schedule at ``step.rate_eps``; latencies run from each
    batch's due time, so a stall is charged to every batch it delays."""
    interval = cfg["batch_size"] / step.rate_eps
    count = min(len(batches), int(seconds / interval))
    view = cfg["view"]
    expected: list[tuple[int, float]] = []
    start = perf_counter() + 0.02
    for index in range(count):
        due = start + index * interval
        if perf_counter() < due:
            sleep_until(due)
            # The generator was idle before this slot: any lateness is its own.
            step.late_ms.append((perf_counter() - due) * 1e3)
        else:
            step.late_ms.append(0.0)  # behind because the server was: not the generator's
        batch = batches[index]
        result = call(server, "ingest", client.ingest, batch)
        acked = perf_counter()
        version += len(batch)
        if result.version != version:
            raise server.fail(f"ack carries version {result.version}, expected {version}")
        step.ack_ms.append((acked - due) * 1e3)
        if result.notifications:
            expected.append((version, due))
        if (index + 1) % cfg["query_every"] == 0:
            # Between two ingest slots.  Timed from its send: on this one
            # connection a query's lateness is the ingest's, already in ack_ms.
            sleep_until(due + interval / 2)
            asked = perf_counter()
            call(server, "query", client.query, view)
            step.query_ms.append((perf_counter() - asked) * 1e3)
    step.batches = count
    # A backlog that grows shows as acks drifting away from their due times.
    step.tail_ack_ms = median(step.ack_ms[-max(1, count // 10):])
    if expected:
        subscriber.wait_for(expected[-1][0])
    for batch_version, due in expected:
        arrival = subscriber.arrived.get(batch_version)
        if arrival is None:
            step.missing += 1
        else:
            step.fresh_ms.append((arrival - due) * 1e3)
    return version


def live_inputs(streams: inputs.Streams):
    cfg = inputs.FROZEN["serve_live"]
    # The smoke floor keeps enough batches for three short steps and a closed loop.
    query_input = streams.query_input(cfg["query"], cfg["stream"], floor=60000)
    return cfg, query_input, inputs.batches(query_input.events, cfg["batch_size"])


def short_life(harness: Harness, cfg, label: str, batches, program, expected):
    """A server lifetime of a fixed size: cold start, ``batches`` in a closed
    loop, then three times SIGKILL and a restart on the WAL alone (the same
    replay each time), views checked.  Returns ``(setup seconds, [recovery
    seconds], checks made, problems)``."""
    argv = engines.serve_argv(cfg["query"], cfg["engine"], harness.directory(f"{label}-wal"))
    server = harness.spawn(argv, f"{label}-a")
    client, setup_s = server.connect()
    for batch in batches:
        call(server, "ingest", client.ingest, batch)
    acked = sum(len(batch) for batch in batches)
    recoveries = []
    for suffix in "bcd":
        client.close()
        server.kill()  # kill -9 keeps the OS page cache: this checks recovery, not fsync
        server, client, recovery_s = restart(harness, argv, f"{label}-{suffix}", acked)
        recoveries.append(recovery_s)
    views = served_views(server, client, program)
    problems = oracle.recompute_mismatches(cfg["query"], expected, views)
    server.shutdown(client)
    return (setup_s, recoveries,
            len(recoveries) + sum(len(entries) for _, entries in views.values()), problems)


def closed_loop(server, client, cfg, batches, version: int) -> tuple[list[float], int]:
    """``batches`` back to back on one connection: acked events per second in
    each window of the burst, and the version reached."""
    acked_at = [perf_counter()]
    for batch in batches:
        result = call(server, "ingest", client.ingest, batch)
        acked_at.append(perf_counter())
        version += len(batch)
        if result.version != version:
            raise server.fail(f"ack carries version {result.version}, expected {version}")
    size = len(batches) // cfg["closed_windows"]
    return [
        sum(len(batch) for batch in batches[low:low + size])
        / (acked_at[low + size] - acked_at[low])
        for low in range(0, len(batches) - size + 1, size)
    ], version


def run_live(streams: inputs.Streams, seconds: float, log) -> dict:
    cfg, query_input, batches = live_inputs(streams)
    log(f"  input {cfg['query']} batches={len(batches)} events={len(query_input.events)} "
        f"crc32={query_input.checksum} "
        f"frozen={inputs.frozen_check(cfg, streams.seed, [query_input], streams.smoke)}")
    shares = cfg["phase_shares"]  # of ``seconds``; the rest goes to bursts and short lifetimes
    windows = cfg["windows"]
    burst = streams.scaled(cfg["closed_batches"], floor=4 * cfg["closed_windows"])
    problems: list[str] = []
    attempted = 0
    steps = [Step(label, rate) for label, rate in cfg["rates_eps"].items()]
    short = batches[:streams.scaled(cfg["recovery_batches"], floor=10)]
    short_expected = oracle.recompute(
        cfg["query"], oracle.fold(event for batch in short for event in batch))
    setups, recoveries, closed_rates = [], [], []
    with Harness() as harness:

        def short_lifetime():
            """One more cold start and three recoveries; three of them, spread over the run."""
            nonlocal attempted
            setup_s, recovered, checks, found = short_life(
                harness, cfg, f"short{len(setups)}", short, query_input.program, short_expected)
            setups.append(setup_s)
            recoveries.extend(recovered)
            attempted += len(short) + checks
            problems.extend(found)

        short_lifetime()
        argv = engines.serve_argv(cfg["query"], cfg["engine"], harness.directory("live-wal"))
        server = harness.spawn(argv, "live")
        client, setup_s = server.connect()
        setups.append(setup_s)
        host, port = server.address()
        subscriber = Subscriber(host, port, cfg["view"])
        version = 0
        cursor = 0
        for step in steps:
            version = open_loop(server, client, subscriber, cfg, step, batches[cursor:],
                                seconds * shares[step.label], version)
            cursor += step.batches
            attempted += step.batches + len(step.query_ms) + len(step.fresh_ms) + step.missing
            if step.missing:
                problems.append(f"step {step.label}: {step.missing} batches never delivered")
            log(f"  step {step.label}: {step.rate_eps:.0f} ev/s batches={step.batches} "
                f"ack p50={percentile(step.ack_ms, 50):.3f}ms "
                f"fresh p95={percentile(step.fresh_ms, 95) if step.fresh_ms else float('nan'):.3f}ms "
                f"gen late p95={step.gen_late_p95_ms():.3f}ms last-decile ack={step.tail_ack_ms:.3f}ms")
            # Capacity with the subscriber still attached: a closed-loop burst of a
            # fixed batch count after every step, so a slow stretch of the host
            # cannot sit on all of them and the WAL of a run has one length.
            if len(batches) - cursor < burst:
                raise HarnessError("the scheduled steps left too few batches for a closed-loop burst")
            rates, version = closed_loop(server, client, cfg, batches[cursor:cursor + burst], version)
            closed_rates += rates
            cursor += burst
            attempted += burst
            if step.label == "mid":
                short_lifetime()  # the live server idles meanwhile
        log(f"  closed loop: {len(steps)} bursts of {burst} batches ({cursor} of {len(batches)} "
            f"used), windows at {min(closed_rates):.0f}..{max(closed_rates):.0f} events/s")
        if subscriber.error is not None:
            problems.append(f"subscriber failed: {subscriber.error!r}")

        statistics = call(server, "stats", client.statistics)
        wal = statistics["durability"]["wal"]
        rss_mb = peak_rss_mb(server.pid)
        sent = [event for batch in batches[:cursor] for event in batch]
        payload = inputs.wire_digest(sent)[1]
        views = served_views(server, client, query_input.program)
        attempted += sum(len(entries) for _, entries in views.values())
        problems += oracle.recompute_mismatches(
            cfg["query"], oracle.recompute(cfg["query"], oracle.fold(sent)), views)
        server.shutdown(client)
        subscriber.close()  # after the shutdown: its reader thread ends on the closed socket
        short_lifetime()

    rate = max(closed_rates)
    mid = next(step for step in steps if step.label == "mid")
    # A window counts while the generator kept its schedule in it: where it ran
    # late, the latencies from the due times are its own, not the server's.
    on_time = [late <= cfg["gen_late_limit_ms"] for late in per_window(mid.late_ms, 95, windows)]
    if not any(on_time):
        problems.append(f"step mid: the generator ran late by more than "
                        f"{cfg['gen_late_limit_ms']}ms at p95 in every window; "
                        f"latencies not reported")
        on_time = None
    metrics = {
        "setup_s": min(setups),
        "refresh_rate_eps": rate,
        "ingest_rate_eps": rate,
        "state_mb": statistics["engine"]["memory_bytes"] / 1e6,
        "ack_p50_ms": quietest(mid.ack_ms, 50, windows, on_time),
        "ack_p95_ms": quietest(mid.ack_ms, 95, windows, on_time),
        "freshness_p50_ms": quietest(mid.fresh_ms, 50, windows, on_time),
        "freshness_p95_ms": quietest(mid.fresh_ms, 95, windows, on_time),
        "query_p50_ms": quietest(mid.query_ms, 50, windows, on_time),
        "query_p95_ms": quietest(mid.query_ms, 95, windows, on_time),
        "recovery_s": min(recoveries),
        "wal_write_amp": wal["bytes_appended"] / payload,
        "server_rss_mb": rss_mb,
    }
    log(f"  samples at mid: ack={len(mid.ack_ms)} freshness={len(mid.fresh_ms)} "
        f"queries={len(mid.query_ms)} in {windows} windows; closed-loop windows="
        f"{len(closed_rates)}; cold starts={len(setups)} recoveries={len(recoveries)} "
        f"of {len(short)} batches")
    return {"metrics": metrics, "attempted": attempted, "failed": len(problems),
            "problems": problems, "steps": steps, "setups": setups}
