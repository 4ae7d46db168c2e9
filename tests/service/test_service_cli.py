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
