"""Trigger-program compilation to specialized Python code, in three stages.

The interpreter (:mod:`repro.runtime.interpreter`) walks the AGCA AST of every
statement on every event; that tree walk — context dictionaries, GMR
allocations, memo bookkeeping — dominates per-event cost.  This package
mirrors the paper's staged toolchain (calculus → trigger programs →
functional IR → target code) with an explicit **plan → IR → emit** pipeline:

* :mod:`repro.codegen.lowering` lowers scalar value expressions to Python
  expression source fragments;
* :mod:`repro.codegen.statement` **plans** trigger statements into the
  kernel IR of :mod:`repro.codegen.ir` — event loads, table-handle binds,
  primary/secondary/range probes, bucket loops, scalar ops, aggregate
  accumulators, sink merges — specialized on the statement's map schemas,
  trigger variables and access patterns;
* :mod:`repro.codegen.trigger` **fuses** the statement IRs of one
  (relation, op) trigger into a single function — the only scalar kernel
  the codegen emits — hoisting shared event unpacks/table handles and
  deduplicating identical probe/condition subtrees across statements;
* :mod:`repro.codegen.emit` is the only place Python source is generated: it
  walks the IR once and renders the kernel, compiled via ``compile()``/``exec``;
* :mod:`repro.codegen.vector` walks the same trigger plan's ``+=`` steps
  into one columnar numpy kernel per trigger for the batched engine's bulk
  runs;
* :mod:`repro.codegen.engine` ships :class:`CompiledEngine`, a drop-in
  :class:`~repro.runtime.protocol.EngineProtocol` implementation dispatching
  one fused kernel per event; a trigger the fuser declines runs whole on the
  interpreter, so results are always bit-identical.  Kernels are built once
  per program and linked per engine.

``python -m repro.codegen dump <query>`` prints the generated kernel source
and IR operation counts.  See the "Codegen" section of DESIGN.md for the
lowering rules, the fusion/dedup rules and the fallback policy.
"""

from repro.codegen.engine import CompiledEngine, CompiledExecutor
from repro.codegen.trigger import TriggerKernel, try_fuse_trigger

__all__ = [
    "CompiledEngine",
    "CompiledExecutor",
    "TriggerKernel",
    "try_fuse_trigger",
]
