"""Tier-1 guard for the benchmark: the smoke profile emits every declared metric.

Runs ``run.py --smoke`` (all four workloads, untraced then traced, tiny sizes)
in a subprocess, so the benchmark's flat modules never enter pytest's import
namespace.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


def _last_json(argv):
    completed = subprocess.run(
        RUN + argv, capture_output=True, text=True, cwd=ROOT, timeout=240
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stdout


def test_manifest_matches_the_metric_table():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        RUN + ["--manifest"], capture_output=True, text=True, cwd=ROOT, timeout=60
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert json.loads(completed.stdout) == manifest


def test_smoke_profile_emits_every_metric_and_passes_the_oracle():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, output = _last_json(["--smoke"])
    assert result["correct"] is True, output[-3000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = manifest["end_to_end"] + manifest["per_layer"]
    for workload in manifest["workloads"]:
        for metric in declared:
            emitted = result["metrics"].get(f"{workload['name']}/{metric['name']}")
            assert emitted is not None, (workload["name"], metric["name"])
            assert emitted["unit"] == metric["unit"], (workload["name"], metric["name"])
            assert isinstance(emitted["value"], (int, float))
    for workload in manifest["workloads"]:
        for metric in manifest["end_to_end"]:
            value = result["metrics"][f"{workload['name']}/{metric['name']}"]["value"]
            assert value > 0, (workload["name"], metric["name"], value)
