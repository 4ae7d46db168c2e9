"""Checkpoints name the program that wrote them.

A state restores only into an engine running the *same* compiled program:
``checkpoint_state`` carries ``TriggerProgram.digest`` and ``restore_state``
refuses a different one by name.  States written before the field existed
carry no digest and load exactly as they used to.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codegen import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.errors import ReproError
from repro.exec import BatchedEngine, PartitionedEngine
from repro.runtime.engine import IncrementalEngine
from repro.workloads import workload

SRC = Path(__file__).resolve().parents[2] / "src"

ENGINES = {
    "incremental": IncrementalEngine,
    "compiled": CompiledEngine,
    "batched": lambda program: BatchedEngine(program, batch_size=7),
    "partitioned": lambda program: PartitionedEngine(program, partitions=2),
}


def _compile(name, options=None):
    translated = workload(name).query_factory()
    return compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
        options=options,
    )


def test_digest_is_cached_and_distinguishes_programs():
    q22a = _compile("Q22a")
    assert q22a.digest is q22a.digest  # computed once per program
    assert q22a.digest == _compile("Q22a").digest
    assert q22a.digest != _compile("Q17a").digest
    # Same query, different map layout: a different program.
    assert q22a.digest != _compile("Q22a", options="naive").digest


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_state_from_a_different_program_is_refused_by_name(name):
    writer_program, reader_program = _compile("Q22a", options="naive"), _compile("Q22a")
    events = list(workload("Q22a").stream_factory(events=60))
    writer = ENGINES[name](writer_program)
    reader = ENGINES[name](reader_program)
    try:
        writer.apply_many(events)
        state = writer.checkpoint_state()
        with pytest.raises(ReproError) as refusal:
            reader.restore_state(state)
        assert writer_program.digest in str(refusal.value)
        assert reader_program.digest in str(refusal.value)
    finally:
        writer.close()
        reader.close()


def _strip_digests(state):
    state = dict(state)
    state.pop("program", None)
    if "states" in state:
        state["states"] = [_strip_digests(inner) for inner in state["states"]]
    return state


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_state_without_a_digest_loads_as_before(name):
    program = _compile("Q22a")
    root = next(iter(program.roots))
    events = list(workload("Q22a").stream_factory(events=60))
    writer = ENGINES[name](program)
    reader = ENGINES[name](program)
    try:
        writer.apply_many(events)
        state = writer.checkpoint_state()
        inner = state["states"][0] if "states" in state else state
        assert inner["program"] == program.digest
        reader.restore_state(_strip_digests(state))
        assert reader.result_dict(root) == writer.result_dict(root)
        assert reader.events_processed == writer.events_processed
    finally:
        writer.close()
        reader.close()


_DIGEST_SCRIPT = """
from repro.compiler.hoivm import compile_query
from repro.workloads import workload
for name in ("Q4", "Q17a", "Q18a", "Q22a", "Q1", "BSV"):
    translated = workload(name).query_factory()
    program = compile_query(
        translated.roots(), translated.schemas(),
        static_relations=translated.static_relations(),
    )
    print(name, program.digest)
"""


def test_digest_is_independent_of_the_hash_seed():
    outputs = set()
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1, outputs
    assert len(outputs.pop().splitlines()) == 6
