"""The benchmark's one seam onto the program under test.

Every name the benchmark calls in ``repro`` is imported here and nowhere
else, and every engine or server it runs is built here.  Constructor knobs the
roadmap wants gone (``compiled=``, ``backend=``, ``fuse=``, ``min_vector_rows``)
are passed only while the constructor still accepts them, so a change that
deletes one does not have to edit the benchmark: the strongest configuration
is then whatever the constructor builds by default.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if SRC not in Path(repro.__file__).resolve().parents:
    # An installed copy would let the benchmark "pass" in a directory that
    # holds no program at all.
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")

from repro.codegen.engine import CompiledEngine  # noqa: E402
from repro.compiler.hoivm import compile_query  # noqa: E402
from repro.exec import BatchedEngine  # noqa: E402
from repro.runtime.reference import ReferenceEngine  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402  (before durability:
# importing repro.durability first trips a service<->durability import cycle)
from repro.durability.wal import WriteAheadLog  # noqa: E402
from repro.service.core import ViewService, diff_results, engine_for_mode  # noqa: E402
from repro.service.subscriptions import SubscriptionRegistry  # noqa: E402
from repro.service.wire import dump_line, encode_entries, parse_line  # noqa: E402
from repro.streams.adapters import event_from_dict, event_to_dict  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.workloads import workload  # noqa: E402

#: The public surface of ``repro`` this benchmark depends on, by layer.
PUBLIC_API = {
    "workloads": ["workload", "WorkloadSpec.query_factory",
                  "WorkloadSpec.stream_factory", "WorkloadSpec.static_tables"],
    "compiler": ["compile_query", "TriggerProgram.triggers", "TriggerProgram.roots",
                 "TriggerProgram.root_map", "TriggerProgram.static_relations",
                 "TriggerProgram.maps"],
    "codegen": ["CompiledEngine"],
    "exec": ["BatchedEngine", "BatchedEngine.stage", "BatchedEngine.apply_staged"],
    "runtime": ["load_static", "apply", "apply_many", "flush", "view", "result_dict",
                "memory_bytes", "statistics", "checkpoint_state", "restore_state",
                "ReferenceEngine"],
    "service": ["python -m repro.service serve", "ServiceClient", "ViewService",
                "engine_for_mode", "diff_results", "SubscriptionRegistry", "dump_line", "parse_line",
                "encode_entries", "event_to_dict", "event_from_dict"],
    "durability": ["WriteAheadLog"],
    "telemetry": ["Telemetry"],
}


def accepted(factory, **knobs):
    """The subset of ``knobs`` that ``factory`` still takes as parameters."""
    parameters = inspect.signature(factory).parameters
    return {name: value for name, value in knobs.items() if name in parameters}


def compile_spec(spec):
    """``(translated query, trigger program)`` for one workload spec."""
    translated = spec.query_factory()
    return translated, compile_translated(translated)


def compile_translated(translated):
    return compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )


def trigger_relations(program) -> frozenset[str]:
    """Relations whose events do any work: those with a non-empty trigger."""
    return frozenset(t.relation for t in program.triggers.values() if t.statements)


def load_statics(engine, program, static_tables) -> None:
    for relation, rows in static_tables.items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)


def fused_engine(program, telemetry=None):
    """Per-event engine: one fused kernel per trigger."""
    return CompiledEngine(
        program, **accepted(CompiledEngine, fuse=True, telemetry=telemetry)
    )


def batched_engine(program, batch_size: int, telemetry=None):
    """The strongest batched configuration: compiled inner engine, vector backend."""
    return BatchedEngine(
        program,
        batch_size,
        **accepted(BatchedEngine, compiled=True, backend="vector", telemetry=telemetry),
    )


def service_engine(program, cfg: dict, telemetry=None):
    """The engine ``serve --engine ... --backend ... --batch-size ...`` hosts,
    built in-process for the traced pipeline."""
    return engine_for_mode(
        program,
        mode=cfg["engine"],
        **accepted(engine_for_mode, batch_size=cfg.get("batch_size"),
                   backend=cfg.get("backend", "sequential"), telemetry=telemetry),
    )


def serve_argv(query: str, engine: str, wal_dir, checkpoint_dir=None,
               batch_size: int | None = None, backend: str | None = None) -> list[str]:
    """Command line of the server process (after ``python``)."""
    argv = ["-m", "repro.service", "serve", "--query", query, "--engine", engine,
            "--wal-dir", str(wal_dir), "--fsync-every", "1", "--port", "0"]
    if checkpoint_dir is not None:
        argv += ["--checkpoint-dir", str(checkpoint_dir)]
    if batch_size is not None:
        argv += ["--batch-size", str(batch_size)]
    if backend is not None:
        argv += ["--backend", backend]
    return argv
