"""Engine construction for every strategy compared in the paper.

The strategies map one-to-one onto the labels of Figures 6 and 7:

===============  ===========================================================
label            engine
===============  ===========================================================
dbtoaster        full Higher-Order IVM (this paper's system)
dbtoaster-comp   HO-IVM with triggers compiled to specialized Python code
                 (:class:`repro.codegen.CompiledEngine`: one fused kernel
                 per trigger, interpreter fallback per trigger)
dbtoaster-batch  HO-IVM compiled, dispatched per run of same-trigger events
                 (:class:`repro.exec.BatchedEngine`, a CompiledEngine; long
                 runs take numpy kernels when numpy is present, short ones
                 go whole to the fused kernel)
dbtoaster-par    HO-IVM hash-partitioned across compiled engines with
                 merge-on-read (:class:`repro.exec.PartitionedEngine`)
naive            the naive viewlet transform (no decomposition /
                 simplification)
ivm              classical first-order IVM on DBToaster's runtime (depth-1)
rep              full re-evaluation on DBToaster's runtime (depth-0)
dbx-rep          commercial-DBMS stand-in: naive nested-loop engine,
                 recompute
dbx-ivm          commercial-DBMS IVM stand-in: depth-1 IVM plus a fixed
                 per-update bookkeeping overhead (models the
                 catalog/statement parsing cost the paper observed
                 dominating DBX's IVM mode)
spy              stream-processor stand-in: same naive engine driven
                 through the agenda dispatcher, full recompute per event
===============  ===========================================================

``dbx-rep``/``spy`` use :class:`repro.runtime.reference.ReferenceEngine`
(an independent row-at-a-time evaluator); see DESIGN.md for the substitution
rationale and for the batching/partitioning semantics of the two
``dbtoaster-*`` scale-out strategies.
"""

from __future__ import annotations

import inspect
import time
from functools import partial
from typing import Callable, Mapping

from repro.compiler.hoivm import compile_query
from repro.compiler.materialization import CompilerOptions
from repro.errors import BenchmarkError
from repro.exec import DEFAULT_BATCH_SIZE, DEFAULT_PARTITIONS, BatchedEngine, PartitionedEngine
from repro.runtime.engine import IncrementalEngine
from repro.runtime.factory import STRATEGY_PRESETS, engine_for_strategy, program_for_strategy
from repro.runtime.reference import ReferenceEngine
from repro.sql.translate import TranslatedQuery

#: Fixed per-update bookkeeping overhead (seconds) modelled for "dbx-ivm".
DBX_IVM_OVERHEAD_SECONDS = 0.002


class OverheadEngine:
    """Wrap an engine, charging a fixed busy-wait overhead per event."""

    def __init__(self, inner, overhead_seconds: float) -> None:
        self.inner = inner
        self.overhead_seconds = overhead_seconds

    def load_static(self, relation, rows):
        return self.inner.load_static(relation, rows)

    def apply(self, event) -> None:
        deadline = time.perf_counter() + self.overhead_seconds
        self.inner.apply(event)
        while time.perf_counter() < deadline:
            pass

    def flush(self) -> None:
        self.inner.flush()

    def view(self, name=None):
        return self.inner.view(name)

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()

    def close(self) -> None:
        self.inner.close()


def _preset(strategy: str, query: TranslatedQuery):
    """A paper preset, built by the one strategy table in ``runtime.factory``."""
    return engine_for_strategy(
        strategy,
        query.roots(),
        query.schemas(),
        static_relations=query.static_relations(),
    )


def _reference(query: TranslatedQuery):
    return ReferenceEngine(query.roots(), query.schemas())


def _dbx_ivm(query: TranslatedQuery):
    return OverheadEngine(_preset("ivm", query), DBX_IVM_OVERHEAD_SECONDS)


def _dbtoaster_program(query: TranslatedQuery):
    return program_for_strategy(
        "dbtoaster",
        query.roots(),
        query.schemas(),
        static_relations=query.static_relations(),
    )


def _dbtoaster_batch(query: TranslatedQuery, batch_size: int = DEFAULT_BATCH_SIZE):
    return BatchedEngine(_dbtoaster_program(query), batch_size)


def _dbtoaster_par(
    query: TranslatedQuery,
    partitions: int = DEFAULT_PARTITIONS,
    batch_size: int | None = None,
    backend: str = "sequential",
):
    return PartitionedEngine(
        _dbtoaster_program(query),
        partitions=partitions,
        backend=backend,
        batch_size=batch_size,
    )


STRATEGIES: dict[str, Callable[..., object]] = {
    **{strategy: partial(_preset, strategy) for strategy in STRATEGY_PRESETS},
    "dbtoaster-batch": _dbtoaster_batch,
    "dbtoaster-par": _dbtoaster_par,
    "dbx-rep": _reference,
    "dbx-ivm": _dbx_ivm,
    "spy": _reference,
}


def build_engine(strategy: str, query: TranslatedQuery, **config):
    """Build an engine for ``strategy`` running ``query``.

    ``config`` carries optional execution parameters (``batch_size``,
    ``partitions``, ``backend``); each strategy consumes the ones it
    understands and ignores the rest, so one configuration dictionary can
    drive a whole strategy comparison.
    """
    try:
        factory = STRATEGIES[strategy]
    except KeyError:
        raise BenchmarkError(
            f"unknown strategy {strategy!r}; expected one of {sorted(STRATEGIES)}"
        ) from None
    parameters = inspect.signature(factory).parameters
    accepted = {
        name: value
        for name, value in config.items()
        if name in parameters and value is not None
    }
    return factory(query, **accepted)


def custom_options_engine(
    query: TranslatedQuery, overrides: Mapping[str, object]
) -> IncrementalEngine:
    """Interpreted engine under explicit compiler options (the heuristic ablation)."""
    program = compile_query(
        query.roots(),
        query.schemas(),
        static_relations=query.static_relations(),
        options=CompilerOptions(**overrides),
    )
    return IncrementalEngine(program)
