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
    are interchangeable: checkpoints + a WAL tail written under
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
    first.checkpoint()
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


def _durable_args(tmp_path, *extra):
    from repro.service.__main__ import _build_parser

    return _build_parser().parse_args([
        "serve", "--query", "Q1", "--port", "0", *extra,
        "--checkpoint-dir", str(tmp_path / "ckpt"), "--wal-dir", str(tmp_path / "wal"),
    ])


def test_fresh_discards_the_previous_lifetimes_checkpoints(tmp_path):
    """A restart after ``--fresh`` recovers the fresh lifetime, not the
    newer-numbered checkpoint an earlier lifetime left behind."""
    from repro.service.__main__ import build_service
    from svc_helpers import reference_entries

    fixture = make_workload_fixture("Q1", events=300, max_live_orders=20)
    first, _ = build_service(_durable_args(tmp_path))
    first.ingest(fixture.events)
    first.checkpoint()
    first.close()

    fresh, recovery = build_service(_durable_args(tmp_path, "--fresh"))
    assert recovery is None and fresh.version == 0
    fresh.ingest(fixture.events[:40])
    fresh.checkpoint()
    fresh.close()

    third, recovery = build_service(_durable_args(tmp_path))
    try:
        assert recovery["restored"] and recovery["version"] == 40
        assert [info.version for info in third.checkpoints.list()] == [40]
        for view in third.views():
            assert third.query(view).entries == reference_entries(
                fixture.program, fixture.statics, fixture.events, 40, view
            )
    finally:
        third.close()


@pytest.mark.parametrize("command", ["serve", "replay"])
def test_a_foreign_checkpoint_is_one_error_line_naming_fresh(
    command, stream_file, tmp_path, capsys
):
    """A directory written for another program: no traceback, exit 2, and the
    advice (``--fresh``) actually starts over."""
    from repro.service import ViewService, engine_for_mode

    other = make_workload_fixture("Q6", events=10)
    foreign = ViewService(engine_for_mode(other.program), checkpoint_dir=tmp_path)
    foreign.checkpoint()
    foreign.close()

    argv = {"serve": ["serve", "--port", "0"], "replay": ["replay", str(stream_file)]}
    assert main([*argv[command], "--query", "Q1", "--checkpoint-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert other.program.digest in err[0]
    assert "start with --fresh to discard the checkpoints and the log" in err[0]

    assert main(["replay", str(stream_file), "--query", "Q1", "--fresh",
                 "--checkpoint-dir", str(tmp_path)]) == 0
    assert "checkpoint saved:" in capsys.readouterr().out
    assert [path.name for path in tmp_path.glob("*.ckpt")] == [
        "checkpoint-000000000160.ckpt"
    ]
