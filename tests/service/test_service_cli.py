"""The ``python -m repro.service`` command line."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.__main__ import main
from repro.service.client import ServiceClient
from repro.streams.adapters import write_events_jsonl
from svc_helpers import make_workload_fixture

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    fixture = make_workload_fixture("Q1", events=160, max_live_orders=20)
    path = tmp_path_factory.mktemp("streams") / "q1.jsonl"
    write_events_jsonl(path, fixture.events)
    return path


def test_replay_prints_views_and_saves_a_checkpoint(stream_file, tmp_path, capsys):
    assert main([
        "replay", str(stream_file),
        "--query", "Q1", "--engine", "batched", "--batch-size", "25",
        "--checkpoint-dir", str(tmp_path), "--limit", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "replayed 160 events; service version 160 (batched engine)" in out
    assert "view Q1_sum_qty" in out
    assert "checkpoint saved:" in out
    assert list(tmp_path.glob("checkpoint-*.ckpt"))


def test_replay_resumes_from_the_saved_checkpoint(stream_file, tmp_path, capsys):
    assert main([
        "replay", str(stream_file), "--query", "Q1",
        "--checkpoint-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    # Second run restores version 160 and finds nothing new to apply.
    assert main([
        "replay", str(stream_file), "--query", "Q1",
        "--checkpoint-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "restored checkpoint at version 160" in out
    assert "replayed 0 events" in out


def test_list_names_the_workload_queries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Q1" in out and "VWAP" in out


@pytest.mark.parametrize(
    "engine_args",
    [
        [],
        # The benchmark's serve_bulk command line: ``--backend vector`` is an
        # accepted no-op for the batched engine and must keep starting.
        ["--engine", "batched", "--backend", "vector", "--batch-size", "1000"],
    ],
    ids=["default", "batched-vector"],
)
def test_serve_accepts_wire_clients(stream_file, engine_args):
    """The real CLI path: spawn the server process, talk to it, shut it down."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--query", "Q1", "--port", "0",
         *engine_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        assert "serving" in line, line
        address = line.split(" on ")[1].split(" ")[0]
        host, port = address.split(":")
        deadline = time.time() + 10
        client = None
        while client is None:
            try:
                client = ServiceClient(host, int(port), timeout=10)
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.05)
        assert client.ping() == 0
        snapshot = client.query("Q1_sum_qty")
        assert snapshot.version == 0
        client.shutdown()
        client.close()
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
            process.wait()


@pytest.mark.parametrize("command", [["serve", "--port", "0"], ["replay", "stream.jsonl"]])
@pytest.mark.parametrize(
    "engine_args", [["--engine", "partitioned"], ["--engine", "compiled"], []],
    ids=["partitioned", "compiled", "default"],
)
def test_vector_backend_outside_the_batched_engine_is_a_usage_error(
    command, engine_args, capsys
):
    """``vector`` names no executor: reject it up front, not with a traceback
    out of ``make_backend`` (``--engine batched --backend vector`` stays, above)."""
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--query", "Q6", "--backend", "vector", *engine_args])
    assert exit_info.value.code == 2
    error_lines = [
        line for line in capsys.readouterr().err.splitlines() if "error:" in line
    ]
    assert len(error_lines) == 1
    assert "--backend vector" in error_lines[0] and "--engine batched" in error_lines[0]


def test_default_engine_recovers_a_directory_written_by_the_interpreter(tmp_path):
    """The default engine is the compiled one, and ``kind: "single"`` states
    are interchangeable: a checkpoint chain + WAL tail written under
    ``--engine incremental`` recovers under the default to the same views."""
    from repro.codegen.engine import CompiledEngine
    from repro.runtime.engine import IncrementalEngine
    from repro.service.__main__ import _build_parser, build_service
    from repro.service.core import engine_for_mode

    fixture = make_workload_fixture("Q1", events=160, max_live_orders=20)
    durable = ["--query", "Q1", "--port", "0",
               "--checkpoint-dir", str(tmp_path / "ckpt"),
               "--wal-dir", str(tmp_path / "wal")]

    args = _build_parser().parse_args(["serve", "--engine", "incremental", *durable])
    first, _ = build_service(args)
    assert type(first.engine) is IncrementalEngine
    first.ingest(fixture.events[:60])
    first.checkpoint()
    first.ingest(fixture.events[60:100])
    first.checkpoint()  # a delta on top of the base
    first.ingest(fixture.events[100:])  # lives only in the WAL tail
    expected = {view: first.query(view).entries for view in first.views()}
    first.close()

    args = _build_parser().parse_args(["serve", *durable])
    assert args.engine == "compiled"
    assert type(engine_for_mode(fixture.program)) is CompiledEngine
    second, recovery = build_service(args)
    try:
        assert type(second.engine) is CompiledEngine
        assert recovery["restored"] and recovery["wal_batches_replayed"] == 1
        assert second.version == 160
        recovered = {view: second.query(view).entries for view in second.views()}
        assert recovered == expected
        for view, entries in expected.items():
            for key, value in entries.items():
                assert type(recovered[view][key]) is type(value), (view, key)
    finally:
        second.close()
