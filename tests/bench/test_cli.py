"""Tests for the benchmark command-line interface."""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.__main__ import _build_parser, main

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The whole command surface: what reproduces a paper figure or inspects an
#: engine.  Throughput/latency/overhead axes live in ``benchmarks/e2e``.
SURFACE = {
    "list": set(),
    "features": set(),
    "rates": {"--queries", "--strategies", "--events", "--budget",
              "--batch-size", "--partitions", "--backend"},
    "trace": {"--strategies", "--events", "--samples", "--budget"},
    "scaling": {"--queries", "--scales", "--events-per-unit"},
    "ablation": {"--events"},
    "stats": {"--strategy", "--events", "--batch-size", "--partitions",
              "--backend", "--json"},
}


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Q3" in out and "VWAP" in out and "MDDB1" in out


def test_features_command(capsys):
    assert main(["features"]) == 0
    out = capsys.readouterr().out
    assert "Query" in out and "maps" in out


def test_rates_command_small(capsys):
    code = main(
        ["rates", "--queries", "Q6", "--strategies", "dbtoaster", "ivm",
         "--events", "80", "--budget", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Q6" in out and "dbtoaster" in out


def test_trace_command_small(capsys):
    code = main(["trace", "Q6", "--strategies", "dbtoaster", "--events", "80", "--samples", "4"])
    assert code == 0
    assert "trace for Q6" in capsys.readouterr().out


def test_ablation_command_small(capsys):
    code = main(["ablation", "Q6", "--events", "60"])
    assert code == 0
    assert "refreshes/s" in capsys.readouterr().out


def test_scaling_command_small(capsys):
    code = main(["scaling", "--queries", "Q6", "--scales", "0.5", "1",
                 "--events-per-unit", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Q6" in out and "x0.5" in out and "x1" in out


def test_command_surface_is_the_paper_figures_plus_inspection():
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    surface = {
        name: {o for action in sub._actions for o in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert surface == SURFACE


@pytest.mark.parametrize(
    "command", ["batch", "codegen", "finance", "service", "durability"]
)
def test_superseded_subcommands_are_rejected(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_bench_imports_no_serving_layer():
    """Service, WAL and telemetry numbers are ``benchmarks/e2e``'s job."""
    script = (
        "import sys, repro.bench.__main__; print([m for m in sys.modules if "
        "m.startswith(('repro.service', 'repro.durability', 'repro.telemetry'))])"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_missing_command_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def test_rates_command_with_scale_out_strategies(capsys):
    code = main(
        ["rates", "--queries", "Q6", "--strategies", "dbtoaster", "dbtoaster-batch",
         "dbtoaster-par", "--events", "60", "--budget", "2",
         "--batch-size", "10", "--partitions", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dbtoaster-batch" in out and "dbtoaster-par" in out


def test_stats_command_small(capsys):
    code = main(["stats", "Q6", "--events", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "entries" in out and "memory" in out


def test_stats_command_partitioned(capsys):
    code = main(["stats", "Q6", "--strategy", "dbtoaster-par",
                 "--partitions", "2", "--events", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "partition 0" in out and "partition 1" in out


def test_rates_command_with_compiled_strategy(capsys):
    code = main(["rates", "--queries", "Q6", "--strategies", "dbtoaster",
                 "dbtoaster-comp", "--events", "60", "--budget", "2"])
    assert code == 0
    assert "dbtoaster-comp" in capsys.readouterr().out
