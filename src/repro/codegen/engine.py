"""The compiled execution engine: one generated kernel per trigger.

:class:`CompiledEngine` is a drop-in replacement for
:class:`~repro.runtime.engine.IncrementalEngine` (it *is* one — same map
store, database, checkpoint format ``kind: "single"`` and view surface) whose
executor runs the specialized Python functions produced by the staged
codegen pipeline (:mod:`repro.codegen.statement` plans IR,
:mod:`repro.codegen.trigger` fuses it, :mod:`repro.codegen.emit` renders it)
instead of walking the AGCA AST per event.

Every trigger with statements compiles to one **fused kernel**: ``apply`` is
a single ``(sign, relation)`` dictionary hit followed by one function call
covering every statement, the base-relation apply and all ``:=``
statements, with event unpacks and identical probe/condition subtrees shared
across statements.  A trigger the fuser declines runs whole through the
ordinary :class:`~repro.runtime.interpreter.TriggerExecutor`, so the engine's
observable results (values *and* types) are identical to the interpreted
engine on every program.  One deliberate deviation in the error surface:
hoisted loop-invariant conditions are evaluated even when the scan they
guard is empty, so an *ill-typed* comparison (ordering a number against a
string) can raise here on events where the interpreter would have skipped
it.  Well-typed programs — everything the SQL frontend emits — behave
identically, errors included.

Durable state stays interchangeable with the other single engines: the
checkpoint dictionary holds only map/relation entries and the event count,
never code objects.  :meth:`CompiledEngine.restore_state` rebinds every
kernel after loading, so state pickled on one process (or one library
version) runs on another — this is what lets partitions placed in worker
processes rebuild compiled engines from the pickled trigger program.

Kernels belong to the program, engines only link them: the first engine
over a program object builds its kernels, and every later one (another
part, a partition, a fresh engine restoring a checkpoint) links the same
code objects against its own tables.  The links live in the engine's map
store, so a restore into the same engine reuses the already-linked runners
instead of re-``exec``-ing every code object.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Mapping

from repro.codegen import trigger as trigger_compiler
from repro.compiler.program import TriggerProgram
from repro.delta.events import StreamEvent
from repro.runtime.database import Database
from repro.runtime.engine import IncrementalEngine
from repro.runtime.interpreter import TriggerExecutor
from repro.runtime.maps import MapStore


class CompiledExecutor:
    """Applies stream events through fused trigger kernels, interpreting the rest.

    Each trigger with statements has one kernel from
    :func:`~repro.codegen.trigger.try_fuse_trigger`, built once per program
    (:func:`~repro.codegen.trigger.program_kernels`) and linked here against
    this engine's tables; a trigger the fuser declines runs whole through
    the interpreter, which stays the reference.
    """

    def __init__(
        self,
        program: TriggerProgram,
        database: Database,
        maps: MapStore,
        maintained_relations: frozenset[str] = frozenset(),
        interpreter: TriggerExecutor | None = None,
    ) -> None:
        self._program = program
        self._database = database
        self._maps = maps
        self._maintained = maintained_relations
        self._interpreter = interpreter if interpreter is not None else TriggerExecutor(
            program, database, maps, maintained_relations=maintained_relations
        )
        started = perf_counter()
        # The program's kernels, built by the first engine over it.
        kernels = trigger_compiler.program_kernels(program)
        self._trigger_kernels: dict[tuple[int, str], trigger_compiler.TriggerKernel] = {
            key: kernel for key, kernel in kernels.items() if kernel is not None
        }
        # (sign, relation) -> statement count, for the triggers that interpret.
        self._interpreted: dict[tuple[int, str], int] = {
            (sign, relation): len(program.trigger_for(sign, relation).statements)
            for (sign, relation), kernel in kernels.items()
            if kernel is None
        }
        # (sign, relation) -> (fused runner, arity): the per-event fast path.
        self._fused: dict[tuple[int, str], tuple[Callable[[tuple], None], int]] = {}
        self.rebind()
        # Always-on accounting: build and link wall time (one-shot; about
        # zero when the program's kernels were already built) and how many
        # statement executions the interpreter ran for declined triggers.
        self.compile_seconds = perf_counter() - started
        self.fallback_hits = 0

    def rebind(self) -> None:
        """(Re)link every kernel against the live tables.

        Called after construction and after :meth:`CompiledEngine.restore_state`;
        binding is what turns schema-specialized code objects into closures
        over the concrete :class:`IndexedTable` objects.  The map store keeps
        each link with the tables it resolved, so rebinding after a restore
        into the same store is a cheap identity check, not a re-``exec``.
        """
        self._fused = {
            key: (kernel.bind(self._maps, self._database), kernel.arity)
            for key, kernel in self._trigger_kernels.items()
        }

    def trigger_kernel_for(self, sign: int, relation: str) -> trigger_compiler.TriggerKernel | None:
        """The fused kernel of one trigger (None when it interprets or is empty)."""
        return self._trigger_kernels.get((sign, relation))

    # -- event application ------------------------------------------------
    def apply(self, event: StreamEvent) -> None:
        """Apply one event: the fused kernel when the trigger has one, else
        the interpreter (or, for a trigger without statements, the base apply)."""
        key = (event.sign, event.relation)
        fused = self._fused.get(key)
        if fused is not None:
            runner, arity = fused
            values = event.values
            if len(values) != arity:
                raise ValueError(
                    f"event arity {len(values)} does not match relation arity "
                    f"{arity}"
                )
            # One call covers every statement, the base-relation apply and
            # the := statements, in the executor's exact order.
            runner(values)
            return
        statements = self._interpreted.get(key)
        if statements is not None:
            self.fallback_hits += statements
            self._interpreter.apply(event)
        elif event.relation in self._maintained:
            self._database.apply(event)

    # -- reporting ----------------------------------------------------------
    def codegen_statistics(self) -> dict[str, object]:
        """Compiled/interpreted statement counts and the fusion totals."""
        fallbacks = [
            f"{trigger.name}: {stmt.target}"
            for trigger in self._program.triggers.values()
            if (trigger.sign, trigger.relation) in self._interpreted
            for stmt in trigger.statements
        ]
        kernels = self._trigger_kernels.values()
        return {
            "compiled_statements": sum(k.fused_statements for k in kernels),
            "fallback_statements": len(fallbacks),
            "fallbacks": fallbacks,
            "fallback_hits": self.fallback_hits,
            "fused_kernels": len(self._trigger_kernels),
            "deduped_probes": sum(k.deduped_probes for k in kernels),
            "deduped_scalars": sum(k.deduped_scalars for k in kernels),
            "compile_seconds": self.compile_seconds,
        }


class CompiledEngine(IncrementalEngine):
    """An incremental engine whose triggers run as generated Python code.

    Behaves exactly like :class:`IncrementalEngine` — same trigger program,
    same views, same ``kind: "single"`` checkpoint states (interchangeable in
    both directions) — but executes every fused trigger through a single
    kernel call per event.  Construction links the program's kernels
    (building them if no engine over this program object has); restore
    rebinds; the pickled trigger program is all a worker process needs to
    rebuild one.
    """

    def __init__(self, program: TriggerProgram, telemetry=None) -> None:
        super().__init__(program, telemetry=telemetry)
        self._executor = CompiledExecutor(
            program,
            self.database,
            self.maps,
            maintained_relations=self._maintained,
            interpreter=self._executor,
        )
        # A fused kernel IS its trigger's body: expose the trigger's measured
        # histogram under the kernel-level name too instead of observing
        # twice on the hot path (no histograms while telemetry is disabled).
        for (sign, relation), hist in self._trigger_hists.items():
            if self._executor.trigger_kernel_for(sign, relation) is not None:
                op = "insert" if sign > 0 else "delete"
                self.telemetry.registry.register(
                    "repro_codegen_kernel_latency_seconds",
                    {"trigger": f"on_{op}_{relation}"},
                    hist,
                    kind="histogram",
                    help="Fused trigger-kernel execution latency",
                )

    def _collect_telemetry(self, registry) -> None:
        super()._collect_telemetry(registry)
        summary = self._executor.codegen_statistics()
        registry.gauge(
            "repro_codegen_compile_seconds",
            help="Wall time spent building (once per program) and linking trigger kernels",
        ).set(summary["compile_seconds"])
        registry.counter(
            "repro_codegen_fallback_hits_total",
            help="Statement executions the interpreter ran for declined triggers",
        ).value = summary["fallback_hits"]
        registry.gauge(
            "repro_codegen_fused_kernels", help="Triggers running as one fused kernel"
        ).set(summary["fused_kernels"])

    @property
    def codegen(self) -> CompiledExecutor:
        """The compiled executor (kernel inspection, codegen statistics)."""
        return self._executor

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Load a single-engine state, then rebind every fused kernel.

        States never contain code objects (they are plain map/relation entry
        lists), so this works for states produced by any single engine —
        compiled, interpreted or batched.
        """
        super().restore_state(state)
        self._executor.rebind()

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats["mode"] = "compiled"
        stats["codegen"] = self._executor.codegen_statistics()
        return stats

    def describe(self) -> str:
        # Key names here deliberately match codegen_statistics() / the bench
        # stats report, so grepping one name finds both surfaces.
        summary = self._executor.codegen_statistics()
        lines = [
            super().describe(),
            "-- codegen --",
            (
                f"  compiled_statements={summary['compiled_statements']} "
                f"fallback_statements={summary['fallback_statements']} "
                f"fallback_hits={summary['fallback_hits']}"
            ),
            (
                f"  fused_kernels={summary['fused_kernels']} "
                f"deduped_probes={summary['deduped_probes']} "
                f"deduped_scalars={summary['deduped_scalars']} "
                f"compile_seconds={summary['compile_seconds']:.4f}"
            ),
        ]
        for entry in summary["fallbacks"]:
            lines.append(f"  fallback {entry}")
        return "\n".join(lines)
