"""The strategy table: the engines compared in the paper's experiments.

Every strategy compiles the same query with a different compiler preset and
hosts the trigger program in an engine; :data:`STRATEGY_PRESETS` is the one
place that says which:

* ``dbtoaster`` — full Higher-Order IVM (the paper's "DBToaster");
* ``dbtoaster-comp`` — the same program with triggers compiled to
  specialized Python (:class:`repro.codegen.CompiledEngine`);
* ``ivm`` — depth-1 compilation: classical first-order IVM with deltas
  evaluated over the base tables;
* ``rep`` — depth-0 compilation: full re-evaluation on every update;
* ``naive`` — the naive viewlet transform (no decomposition, no
  range-restriction extraction).

``engine_for_strategy`` / ``program_for_strategy`` build from a strategy
name; ``dbtoaster_engine``, ``ivm_engine``, ``rep_engine``, ``naive_engine``
and ``compiled_engine`` are the same builders under their historical names.
The benchmark harness (:mod:`repro.bench.strategies`) builds these presets
through this module rather than declaring its own.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping, Sequence

from repro.agca.ast import Expr
from repro.compiler.hoivm import compile_query
from repro.compiler.materialization import options_for
from repro.compiler.program import TriggerProgram
from repro.errors import CompilationError
from repro.runtime.engine import IncrementalEngine

#: Strategy name -> (compiler preset, whether a ``CompiledEngine`` hosts it).
STRATEGY_PRESETS: dict[str, tuple[str, bool]] = {
    "dbtoaster": ("dbtoaster", False),
    "dbtoaster-comp": ("dbtoaster", True),
    "ivm": ("ivm", False),
    "rep": ("rep", False),
    "naive": ("naive", False),
}


def program_for_strategy(
    strategy: str,
    queries: Expr | Mapping[str, Expr],
    schemas: Mapping[str, Sequence[str]],
    stream_relations: Iterable[str] | None = None,
    static_relations: Iterable[str] = (),
) -> TriggerProgram:
    """Compile ``queries`` with the compiler preset of one named strategy."""
    try:
        preset, _ = STRATEGY_PRESETS[strategy]
    except KeyError:
        raise CompilationError(
            f"unknown strategy {strategy!r}; expected one of {sorted(STRATEGY_PRESETS)}"
        ) from None
    return compile_query(
        queries,
        schemas,
        stream_relations=stream_relations,
        static_relations=static_relations,
        options=options_for(preset),
    )


def engine_for_strategy(
    strategy: str,
    queries: Expr | Mapping[str, Expr],
    schemas: Mapping[str, Sequence[str]],
    stream_relations: Iterable[str] | None = None,
    static_relations: Iterable[str] = (),
) -> IncrementalEngine:
    """Build an engine for one of the named strategies used by the benchmarks."""
    program = program_for_strategy(
        strategy, queries, schemas, stream_relations, static_relations
    )
    _, compiled = STRATEGY_PRESETS[strategy]
    if compiled:
        from repro.codegen.engine import CompiledEngine

        return CompiledEngine(program)
    return IncrementalEngine(program)


#: The named strategies as ``(queries, schemas, stream_relations=None,
#: static_relations=())`` callables.
dbtoaster_engine = partial(engine_for_strategy, "dbtoaster")
ivm_engine = partial(engine_for_strategy, "ivm")
rep_engine = partial(engine_for_strategy, "rep")
naive_engine = partial(engine_for_strategy, "naive")
compiled_engine = partial(engine_for_strategy, "dbtoaster-comp")
