"""The compiled execution engine: generated kernels with interpreter fallback.

:class:`CompiledEngine` is a drop-in replacement for
:class:`~repro.runtime.engine.IncrementalEngine` (it *is* one — same map
store, database, checkpoint format ``kind: "single"`` and view surface) whose
executor runs the specialized Python functions produced by the staged
codegen pipeline (:mod:`repro.codegen.statement` plans IR,
:mod:`repro.codegen.emit` renders it, :mod:`repro.codegen.trigger` fuses it)
instead of walking the AGCA AST per event.

Dispatch is two-tier.  A trigger whose statements *all* compile runs as one
**fused kernel**: ``apply`` is a single ``(sign, relation)`` dictionary hit
followed by one function call covering every statement, the base-relation
apply and all ``:=`` statements, with event unpacks and identical
probe/condition subtrees shared across statements.  Triggers with any
uncompilable statement fall back to per-statement dispatch: compiled
statements run their individual kernels and the rest execute through the
ordinary :class:`~repro.runtime.interpreter.TriggerExecutor`, in statement
order, so the engine's observable results (values *and* types) are identical
to the interpreted engine on every program.  One deliberate deviation in the
error surface: hoisted loop-invariant conditions are evaluated even when the
scan they guard is empty, so an *ill-typed* comparison (ordering a number
against a string) can raise here on events where the interpreter would have
skipped it.  Well-typed programs — everything the SQL frontend emits —
behave identically, errors included.

Durable state stays interchangeable with the other single engines: the
checkpoint dictionary holds only map/relation entries and the event count,
never code objects.  :meth:`CompiledEngine.restore_state` recompiles and
rebinds every kernel after loading, so state pickled on one process (or one
library version) runs on another — this is what lets partitions placed in
worker processes rebuild compiled engines from the pickled trigger program.
Fused kernels cache their per-database table resolution, so a restore into
the same engine reuses the already-linked runners instead of re-``exec``-ing
every code object.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Mapping

from repro.codegen import statement as statement_compiler
from repro.codegen import trigger as trigger_compiler
from repro.compiler.program import ASSIGN, Statement, TriggerProgram
from repro.delta.events import StreamEvent
from repro.runtime.database import Database
from repro.runtime.engine import IncrementalEngine
from repro.runtime.interpreter import TriggerExecutor
from repro.runtime.maps import MapStore


class _TriggerPlan:
    """Per-(sign, relation) execution plan: one bound runner per statement."""

    __slots__ = ("increments", "assigns", "arity")

    def __init__(self) -> None:
        # ``(values, scale)`` runners in statement order, linked by
        # :meth:`CompiledExecutor.rebind`.
        self.increments: list[Callable[[tuple, Any], None]] = []
        self.assigns: list[Callable[[tuple, Any], None]] = []
        # Relation arity, validated before runners index the event tuple
        # positionally (None for triggers with no statements, where the
        # interpreter performs no arity check either).
        self.arity: int | None = None


class CompiledExecutor:
    """Applies stream events through compiled kernels, interpreting the rest.

    Every statement has a ``(values, scale)`` runner (:meth:`runner_for`):
    its bound kernel, or a closure handing the statement to the interpreter
    when it is outside the codegen fragment.  A trigger runs as one fused
    kernel whenever :func:`~repro.codegen.trigger.try_fuse_trigger` fuses
    it; per-statement dispatch is the safety net for the rest.
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
        self._kernels: dict[int, statement_compiler.StatementKernel] = {}
        self._plans: dict[tuple[int, str], _TriggerPlan] = {}
        self._runners: dict[int, Callable[[tuple, Any], None]] = {}
        self._trigger_kernels: dict[tuple[int, str], trigger_compiler.TriggerKernel] = {}
        # (sign, relation) -> (fused runner, arity): the per-event fast path.
        self._fused: dict[tuple[int, str], tuple[Callable[[tuple], None], int]] = {}
        self._pinned: list[Statement] = []  # keeps id()-keyed statements alive
        self.compiled_statements = 0
        self.fallback_statements = 0
        # Always-on accounting: compile/fuse wall time (one-shot) and how
        # often the per-statement path actually hit the interpreter.
        self.compile_seconds = 0.0
        self.fuse_seconds = 0.0
        self.fallback_hits = 0
        self._compile_all()

    # -- compilation --------------------------------------------------------
    def _compile_all(self) -> None:
        compile_started = perf_counter()
        fuse_spent = 0.0
        self._kernels.clear()
        self._trigger_kernels.clear()
        self.compiled_statements = 0
        self.fallback_statements = 0
        for trigger in self._program.triggers.values():
            plan = _TriggerPlan()
            if trigger.statements:
                plan.arity = len(trigger.statements[0].event.trigger_vars)
            fully_compiled = bool(trigger.statements)
            for stmt in trigger.statements:
                kernel = statement_compiler.try_compile_statement(stmt, self._program)
                if kernel is not None:
                    self._kernels[id(stmt)] = kernel
                    self._pinned.append(stmt)
                    self.compiled_statements += 1
                else:
                    self.fallback_statements += 1
                    fully_compiled = False
            key = (trigger.sign, trigger.relation)
            self._plans[key] = plan
            if fully_compiled:
                fuse_started = perf_counter()
                fused = trigger_compiler.try_fuse_trigger(trigger, self._program)
                fuse_spent += perf_counter() - fuse_started
                if fused is not None:
                    self._trigger_kernels[key] = fused
        self.rebind()
        self.fuse_seconds = fuse_spent
        self.compile_seconds = perf_counter() - compile_started

    def rebind(self) -> None:
        """(Re)link every kernel against the live tables.

        Called after compilation and after :meth:`CompiledEngine.restore_state`;
        binding is what turns schema-specialized code objects into closures
        over the concrete :class:`IndexedTable` objects.  Fused kernels cache
        their resolution per table set, so rebinding after a restore into the
        same store is a cheap identity check, not a re-``exec``.
        """
        self._runners.clear()
        for trigger in self._program.triggers.values():
            plan = self._plans[(trigger.sign, trigger.relation)]
            plan.increments = [
                self._bind(stmt) for stmt in trigger.statements if stmt.operation != ASSIGN
            ]
            plan.assigns = [
                self._bind(stmt) for stmt in trigger.statements if stmt.operation == ASSIGN
            ]
        self._fused = {
            key: (kernel.bind(self._maps, self._database), kernel.arity)
            for key, kernel in self._trigger_kernels.items()
        }

    def _bind(self, stmt: Statement) -> Callable[[tuple, Any], None]:
        kernel = self._kernels.get(id(stmt))
        runner = (
            kernel.bind(self._maps, self._database)
            if kernel is not None
            else self._interpreting_runner(stmt)
        )
        self._runners[id(stmt)] = runner
        return runner

    def _interpreting_runner(self, stmt: Statement) -> Callable[[tuple, Any], None]:
        """A ``(values, scale)`` runner for a statement outside the fragment."""
        trigger_vars = stmt.event.trigger_vars
        interpreter = self._interpreter
        if stmt.operation == ASSIGN:
            def run(values: tuple, scale: Any) -> None:
                self.fallback_hits += 1
                interpreter.execute_assign(stmt, dict(zip(trigger_vars, values)))
        else:
            def run(values: tuple, scale: Any) -> None:
                self.fallback_hits += 1
                interpreter.execute_increment(
                    stmt, dict(zip(trigger_vars, values)), scale=scale
                )
        return run

    def kernel_for(self, stmt: Statement) -> statement_compiler.StatementKernel | None:
        """The compiled kernel of one statement (None when it interprets)."""
        return self._kernels.get(id(stmt))

    def runner_for(self, stmt: Statement) -> Callable[[tuple, Any], None]:
        """The bound ``(values, scale)`` runner of one statement.

        The batched execution subsystem's bulk path calls it per tuple of
        a run (scale 1); a statement outside the codegen fragment gets a
        runner that interprets.
        """
        return self._runners[id(stmt)]

    def trigger_kernel_for(self, sign: int, relation: str) -> trigger_compiler.TriggerKernel | None:
        """The fused kernel of one trigger (None when it dispatches per statement)."""
        return self._trigger_kernels.get((sign, relation))

    # -- event application ------------------------------------------------
    def apply(self, event: StreamEvent) -> None:
        """Apply one event: the fused kernel when the trigger has one, else
        compiled runners in statement order with interpreter fallbacks."""
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
        plan = self._plans.get(key)
        if plan is not None:
            values = event.values
            if plan.arity is not None and len(values) != plan.arity:
                # Same error surface as TriggerEvent.bindings_for on the
                # interpreted path; runners index positionally and must not
                # accept malformed events the interpreter rejects.
                raise ValueError(
                    f"event arity {len(values)} does not match relation arity "
                    f"{plan.arity}"
                )
            for runner in plan.increments:
                runner(values, 1)
        if event.relation in self._maintained:
            self._database.apply(event)
        if plan is not None:
            for runner in plan.assigns:
                runner(event.values, 1)

    # -- reporting ----------------------------------------------------------
    def codegen_statistics(self) -> dict[str, object]:
        """Compiled/fallback statement counts, fusion totals, and the splits."""
        fallbacks = []
        for trigger in self._program.triggers.values():
            for stmt in trigger.statements:
                if id(stmt) not in self._kernels:
                    fallbacks.append(f"{trigger.name}: {stmt.target}")
        kernels = self._trigger_kernels.values()
        return {
            "compiled_statements": self.compiled_statements,
            "fallback_statements": self.fallback_statements,
            "fallbacks": fallbacks,
            "fallback_hits": self.fallback_hits,
            "fused_kernels": len(self._trigger_kernels),
            "fused_statements": sum(k.fused_statements for k in kernels),
            "deduped_probes": sum(k.deduped_probes for k in kernels),
            "deduped_scalars": sum(k.deduped_scalars for k in kernels),
            "compile_seconds": self.compile_seconds,
            "fuse_seconds": self.fuse_seconds,
        }


class CompiledEngine(IncrementalEngine):
    """An incremental engine whose triggers run as generated Python code.

    Behaves exactly like :class:`IncrementalEngine` — same trigger program,
    same views, same ``kind: "single"`` checkpoint states (interchangeable in
    both directions) — but executes every fused trigger through a single
    kernel call per event.  Construction compiles; restore recompiles; the
    pickled trigger program is all a worker process needs to rebuild one.
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
            "repro_codegen_compile_seconds", help="Wall time spent compiling statements"
        ).set(summary["compile_seconds"])
        registry.gauge(
            "repro_codegen_fuse_seconds", help="Wall time spent fusing triggers"
        ).set(summary["fuse_seconds"])
        registry.counter(
            "repro_codegen_fallback_hits_total",
            help="Statement executions that fell back to the interpreter",
        ).value = summary["fallback_hits"]
        registry.gauge(
            "repro_codegen_fused_kernels", help="Triggers running as one fused kernel"
        ).set(summary["fused_kernels"])

    @property
    def codegen(self) -> CompiledExecutor:
        """The compiled executor (kernel inspection, codegen statistics)."""
        return self._executor

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Load a single-engine state, then rebind every compiled kernel.

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
                f"fused_statements={summary['fused_statements']} "
                f"deduped_probes={summary['deduped_probes']} "
                f"deduped_scalars={summary['deduped_scalars']}"
            ),
            (
                f"  compile_seconds={summary['compile_seconds']:.4f} "
                f"fuse_seconds={summary['fuse_seconds']:.4f}"
            ),
        ]
        for entry in summary["fallbacks"]:
            lines.append(f"  fallback {entry}")
        return "\n".join(lines)
