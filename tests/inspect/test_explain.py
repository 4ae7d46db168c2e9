"""Physical-design explain: plan documents, observed joins, and the CLIs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from inspect_helpers import load_statics
from repro.codegen.describe import KERNELS_SCHEMA, describe_program
from repro.codegen.vector import numpy_available
from repro.compiler.hoivm import compile_query
from repro.inspect.explain import (
    EXPLAIN_SCHEMA,
    build_explain_report,
    render_explain_text,
)
from repro.service import engine_for_mode
from repro.workloads import all_workloads

REPO = Path(__file__).resolve().parents[2]


def compile_workload(name):
    translated = all_workloads()[name].query_factory()
    return compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestDescribe:
    def test_kernel_document_for_q1(self):
        document = describe_program(compile_workload("Q1"))
        assert document["schema"] == KERNELS_SCHEMA
        assert document["triggers"], "no triggers described"
        summary = document["summary"]
        assert summary["compiled_statements"] + summary["fallback_statements"] > 0


class TestExplainReport:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_workload_gets_a_report(self, name):
        """The acceptance bar: explain emits a report for every query."""
        program = compile_workload(name)
        report = build_explain_report(program, query=name)
        assert report["schema"] == EXPLAIN_SCHEMA
        assert report["query"] == name
        assert report["views"] == sorted(program.roots)
        assert report["plan"]["schema"] == KERNELS_SCHEMA
        assert set(report["maps"]) == set(program.maps)
        text = render_explain_text(report)
        assert name in text and "plan:" in text

    def test_trigger_lines_for_q1(self):
        """Empty triggers say so; only triggers with statements can fuse."""
        text = render_explain_text(build_explain_report(compile_workload("Q1"), query="Q1"))
        lines = text.splitlines()
        start = lines.index("triggers:") + 1
        triggers = lines[start:start + 12]
        fused = "fused (11 statements, 0 probes + 25 scalars deduped)"
        assert triggers == [
            "  Customer:+ no statements",
            "  Customer:- no statements",
            "  Orders:+ no statements",
            "  Orders:- no statements",
            f"  Lineitem:+ {fused}",
            f"  Lineitem:- {fused}",
            "  Part:+ no statements",
            "  Part:- no statements",
            "  Supplier:+ no statements",
            "  Supplier:- no statements",
            "  Partsupp:+ no statements",
            "  Partsupp:- no statements",
        ]
        assert "interpreted" not in text

    def test_observed_counters_joined_per_map(self, q1):
        engine = engine_for_mode(q1.program, "incremental")
        load_statics(engine, q1.program, q1.statics)
        engine.apply_many(q1.events)
        report = build_explain_report(
            q1.program, query="Q1", statistics=engine.statistics()
        )
        assert report["observed"]["events_processed"] == len(q1.events)
        observed = [m["observed"] for m in report["maps"].values() if m.get("observed")]
        assert observed, "no per-map observed stats joined"
        assert any(stats.get("entries", 0) > 0 for stats in observed)
        text = render_explain_text(report)
        assert "observed:" in text

    def test_run_policy_and_commute_table_are_explained(self, q3):
        """"Why are my Q3 groups two events long" is answerable from the tool."""
        report = build_explain_report(q3.program, query="Q3")
        by_trigger = {entry["trigger"]: entry for entry in report["batching"]}
        assert set(by_trigger["Lineitem:+"]["blocked_by"]) >= {"Orders:+", "Orders:-"}
        assert "Lineitem:-" not in by_trigger["Lineitem:+"]["blocked_by"]
        assert by_trigger["Lineitem:+"]["policy"].endswith("replay (fused)")
        text = render_explain_text(report)
        assert "batched run policy:" in text
        assert "merges blocked by: Customer:+, Customer:-, Orders:+, Orders:-" in text
        # Only the triggers with statements count, and only Orders± vectorize:
        # Lineitem± lower some statements but not all, so they replay whole.
        assert "; 6/6 triggers fused (" in text
        assert (
            "  Lineitem:+ replay (fused); merges blocked by: "
            "Customer:+, Customer:-, Orders:+, Orders:-"
        ) in text
        if numpy_available():
            assert "; 10 statements vectorizable" in text
            assert "  Orders:+ vector ×5 statements from 160 events" in text
        policies = {
            name: {e["policy"] for e in build_explain_report(compile_workload(name))["batching"]}
            for name in ("VWAP", "BSP")
        }
        assert policies == {
            "VWAP": {"bulk (:= once per group)"}, "BSP": {"replay (fused)"},
        }
        batched = engine_for_mode(q3.program, "batched", batch_size=8)
        assert render_explain_text(report).split("batched run policy:\n")[1].split(
            "\nobserved")[0] in batched.describe()

    def test_partitioned_statistics_are_merged(self, q3):
        engine = engine_for_mode(q3.program, "partitioned", partitions=2)
        try:
            load_statics(engine, q3.program, q3.statics)
            engine.apply_many(q3.events)
            engine.flush()
            report = build_explain_report(
                q3.program, query="Q3", statistics=engine.statistics()
            )
            observed = report["observed"]
            assert observed["events_processed"] == len(q3.events)
            assert observed["maps"], "partitioned map counters were not merged"
            assert "partitioning" in observed
        finally:
            if hasattr(engine, "close"):
                engine.close()

    def test_partitioned_batched_statistics_keep_batching(self, q1):
        """Every partition's events are accounted in the merged ``batching``."""
        engine = engine_for_mode(q1.program, "partitioned", partitions=2, batch_size=100)
        try:
            load_statics(engine, q1.program, q1.statics)
            engine.apply_many(q1.events)
            statistics = engine.statistics()
            report = build_explain_report(q1.program, query="Q1", statistics=statistics)
            batching = report["observed"]["batching"]
            assert batching["bulk_events"] + batching["fallback_events"] == sum(
                p["events_processed"] for p in statistics["partitioning"]["partitions"]
            )
            assert "bulk_events=" in render_explain_text(report)
        finally:
            engine.close()


class TestCLIs:
    def test_codegen_dump_json(self):
        result = run_cli("-m", "repro.codegen", "dump", "Q6", "--json")
        assert result.returncode == 0, result.stderr
        document = json.loads(result.stdout)
        assert document["schema"] == KERNELS_SCHEMA

    # VWAP: the finance generator takes no dataset scale, so ``--scale``'s
    # default must not reach it.
    @pytest.mark.parametrize("query", ["Q6", "VWAP"])
    def test_inspect_explain_offline_json(self, query):
        result = run_cli(
            "-m", "repro.inspect", "explain", query,
            "--events", "120", "--json",
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["schema"] == EXPLAIN_SCHEMA
        assert report["observed"]["events_processed"] == 120

    def test_inspect_explain_unknown_query_fails_cleanly(self):
        result = run_cli("-m", "repro.inspect", "explain", "NOPE")
        assert result.returncode == 1
        assert "error" in (result.stderr + result.stdout).lower()
