"""Where partitions run: in the calling process, or one worker process each.

:class:`~repro.exec.partitioning.PartitionedEngine` holds one engine per
partition and calls it directly.  With ``backend="sequential"`` each is the
engine :func:`build_partition_engine` builds, in the calling process.  With
``backend="process"`` each is a :class:`_WorkerEngine`: a stub with the same
methods whose calls travel over a pipe to a worker process hosting that
engine.  ``apply_many`` is fire-and-forget (workers drain their pipes
concurrently, which is where the parallel speedup comes from); ``flush`` is
the one barrier, sent to every worker before any answer is collected; every
other call waits for its answer, so observable state is always consistent.

Workers rebuild their engine from the pickled trigger program, so the
process placement works under both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Sequence

from repro.compiler.program import TriggerProgram
from repro.delta.events import StreamEvent
from repro.errors import ExecutionError


def build_partition_engine(program: TriggerProgram, batch_size: int | None):
    """The engine of one partition: compiled, batched when ``batch_size > 1``."""
    from repro.codegen.engine import CompiledEngine
    from repro.exec.batching import BatchedEngine
    from repro.telemetry import Telemetry

    # Partition engines always run with telemetry disabled: events are
    # accounted once at the routing layer, and a process-global enabled
    # default here would count every event twice (and pay per-event timing
    # inside every partition).
    disabled = Telemetry(enabled=False)
    if batch_size is not None and batch_size > 1:
        return BatchedEngine(program, batch_size, telemetry=disabled)
    return CompiledEngine(program, telemetry=disabled)


def _worker_main(connection, program_bytes: bytes, batch_size: int | None) -> None:
    """Worker loop: rebuild the engine, then serve the stub's calls until ``close``.

    Workers recompile their kernels from the unpickled trigger program —
    pickled state never carries code objects.  A fire-and-forget
    ``apply_many`` has no answer to carry its failure, so the failure is held
    back and raised by the next call that waits for one.
    """
    engine = build_partition_engine(pickle.loads(program_bytes), batch_size)
    failure = None
    while True:
        try:
            method, args = connection.recv()
        except EOFError:
            break
        try:
            if method not in _WORKER_CALLS:
                raise ExecutionError(f"unknown worker call {method!r}")
            result = getattr(engine, method)(*args)
        except Exception as exc:
            result = exc
        if method == "apply_many":
            if failure is None and isinstance(result, Exception):
                failure = result
            continue
        if failure is not None:
            result, failure = failure, None
        connection.send(result)
        if method == "close":
            break
    connection.close()


class _WorkerEngine:
    """One partition engine in a worker process, behind the engine's methods."""

    def __init__(self, context, program_bytes: bytes, batch_size: int | None) -> None:
        self._connection, child = context.Pipe()
        self._process = context.Process(
            target=_worker_main, args=(child, program_bytes, batch_size), daemon=True
        )
        self._process.start()
        child.close()
        self._closed = False

    def _send(self, method: str, *args: Any) -> None:
        self._connection.send((method, args))

    def _receive(self) -> Any:
        result = self._connection.recv()
        if isinstance(result, Exception):
            raise result
        return result

    def _call(self, method: str, *args: Any) -> Any:
        self._send(method, *args)
        return self._receive()

    def load_static(self, relation: str, rows: list) -> int:
        return self._call("load_static", relation, rows)

    def apply_many(self, events: Sequence[StreamEvent]) -> None:
        """Fire-and-forget: the worker applies while the caller routes on."""
        self._send("apply_many", events)

    def flush(self) -> Callable[[], Any]:
        """Barrier, phase one: ask the worker to drain; returns phase two."""
        self._send("flush")
        return self._receive

    def result_dict(self, name: str) -> dict[tuple, Any]:
        return self._call("result_dict", name)

    def memory_bytes(self) -> int:
        return self._call("memory_bytes")

    def map_sizes(self) -> dict[str, int]:
        return self._call("map_sizes")

    def statistics(self) -> dict[str, object]:
        return self._call("statistics")

    def enable_provenance(self, depth: int | None, views: list[str] | None) -> None:
        self._call("enable_provenance", depth, views)

    def explain_row(self, view: str | None, key: tuple | None) -> dict[str, Any]:
        return self._call("explain_row", view, key)

    def checkpoint_state(self) -> dict[str, Any]:
        return self._call("checkpoint_state")

    def restore_state(self, state: dict[str, Any]) -> None:
        self._call("restore_state", state)

    def close(self) -> None:
        """Flush and stop the worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._call("close")
        except (EOFError, OSError):  # pragma: no cover - worker already gone
            pass
        finally:
            self._connection.close()
            self._process.join(timeout=5)
            if self._process.is_alive():  # pragma: no cover - stuck worker
                self._process.terminate()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


#: What a worker answers: exactly the stub's methods.
_WORKER_CALLS = frozenset(name for name in vars(_WorkerEngine) if not name.startswith("_"))


def start_workers(
    program: TriggerProgram, count: int, batch_size: int | None
) -> list[_WorkerEngine]:
    """One worker process per partition, each hosting its partition engine."""
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context("spawn")
    program_bytes = pickle.dumps(program)
    return [_WorkerEngine(context, program_bytes, batch_size) for _ in range(count)]
