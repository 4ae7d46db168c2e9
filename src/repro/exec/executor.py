"""Executor backends: where partitioned engines actually run.

:class:`PartitionedEngine` is backend-agnostic: it routes events into
per-partition batches and reads merged views.  A backend owns the partition
engines and answers a small command set:

* ``SequentialBackend`` — all partitions live in the driver process.  This is
  the correctness baseline and the right choice for small streams, where
  process fan-out costs more than it buys.
* ``MultiprocessBackend`` — one OS process per partition, connected by pipes.
  ``apply`` is fire-and-forget (workers drain their pipes concurrently, which
  is where the real parallel speedup comes from); reads go through ``sync``
  barriers so observable state is always consistent.

Workers rebuild their engine from the pickled trigger program, so the
multiprocess backend works under both the ``fork`` and ``spawn`` start
methods.
"""

from __future__ import annotations

import pickle
from typing import Any, Protocol, Sequence

from repro.compiler.program import TriggerProgram
from repro.delta.events import StreamEvent
from repro.errors import ExecutionError, ReproError


def _build_partition_engine(program: TriggerProgram, batch_size: int | None):
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


class Backend(Protocol):
    """What :class:`~repro.exec.partitioning.PartitionedEngine` needs."""

    count: int

    def load_static(self, relation: str, rows: list) -> int: ...

    def apply(self, index: int, events: Sequence[StreamEvent]) -> None: ...

    def sync(self) -> None: ...

    def result_items(self, index: int, name: str) -> list[tuple[tuple, Any]]: ...

    def map_sizes(self, index: int) -> dict[str, int]: ...

    def memory_bytes(self, index: int) -> int: ...

    def statistics(self, index: int) -> dict[str, object]: ...

    def enable_provenance(
        self, index: int, depth: int | None, views: list[str] | None
    ) -> None: ...

    def explain_row(
        self, index: int, view: str | None, key: tuple | None
    ) -> dict[str, Any]: ...

    def state(self, index: int) -> dict[str, Any]: ...

    def restore(self, index: int, state: dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class SequentialBackend:
    """All partition engines hosted in the calling process."""

    def __init__(self, program: TriggerProgram, count: int, batch_size: int | None = None):
        self.count = count
        self._engines = [
            _build_partition_engine(program, batch_size) for _ in range(count)
        ]

    def load_static(self, relation: str, rows: list) -> int:
        loaded = 0
        for engine in self._engines:
            loaded = engine.load_static(relation, rows)
        return loaded

    def apply(self, index: int, events: Sequence[StreamEvent]) -> None:
        engine = self._engines[index]
        for event in events:
            engine.apply(event)

    def sync(self) -> None:
        for engine in self._engines:
            engine.flush()

    def result_items(self, index: int, name: str) -> list[tuple[tuple, Any]]:
        return list(self._engines[index].result_dict(name).items())

    def map_sizes(self, index: int) -> dict[str, int]:
        return self._engines[index].map_sizes()

    def memory_bytes(self, index: int) -> int:
        return self._engines[index].memory_bytes()

    def statistics(self, index: int) -> dict[str, object]:
        return self._engines[index].statistics()

    def enable_provenance(
        self, index: int, depth: int | None, views: list[str] | None
    ) -> None:
        self._engines[index].enable_provenance(depth=depth, views=views)

    def explain_row(
        self, index: int, view: str | None, key: tuple | None
    ) -> dict[str, Any]:
        return self._engines[index].explain_row(view, key)

    def state(self, index: int) -> dict[str, Any]:
        return self._engines[index].checkpoint_state()

    def restore(self, index: int, state: dict[str, Any]) -> None:
        self._engines[index].restore_state(state)

    def close(self) -> None:
        pass


def _worker_main(connection, program_bytes: bytes, batch_size: int | None) -> None:
    """Worker loop: rebuild the engine, then serve commands until ``stop``.

    Workers recompile their kernels from the unpickled trigger program —
    pickled state never carries code objects.
    """
    engine = _build_partition_engine(pickle.loads(program_bytes), batch_size)
    while True:
        try:
            command, payload = connection.recv()
        except EOFError:
            break
        if command == "apply":
            for event in payload:
                engine.apply(event)
        elif command == "load_static":
            relation, rows = payload
            connection.send(engine.load_static(relation, rows))
        elif command == "sync":
            engine.flush()
            connection.send(engine.events_processed)
        elif command == "result_items":
            connection.send(list(engine.result_dict(payload).items()))
        elif command == "map_sizes":
            connection.send(engine.map_sizes())
        elif command == "memory_bytes":
            connection.send(engine.memory_bytes())
        elif command == "statistics":
            connection.send(engine.statistics())
        elif command == "enable_provenance":
            depth, views = payload
            engine.enable_provenance(depth=depth, views=views)
            connection.send(True)
        elif command == "explain_row":
            view, key = payload
            try:
                connection.send(engine.explain_row(view, key))
            except ReproError as exc:
                connection.send(exc)
        elif command == "state":
            connection.send(engine.checkpoint_state())
        elif command == "restore":
            engine.restore_state(payload)
            connection.send(True)
        elif command == "stop":
            connection.send(True)
            break
        else:  # pragma: no cover - protocol misuse
            connection.send(ExecutionError(f"unknown command {command!r}"))
    connection.close()


class MultiprocessBackend:
    """One worker process per partition for real parallel execution."""

    def __init__(self, program: TriggerProgram, count: int, batch_size: int | None = None):
        import multiprocessing

        self.count = count
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")
        program_bytes = pickle.dumps(program)
        self._connections = []
        self._processes = []
        for _ in range(count):
            parent, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child, program_bytes, batch_size),
                daemon=True,
            )
            process.start()
            child.close()
            self._connections.append(parent)
            self._processes.append(process)
        self._closed = False

    def _request(self, index: int, command: str, payload: Any = None) -> Any:
        connection = self._connections[index]
        connection.send((command, payload))
        result = connection.recv()
        if isinstance(result, Exception):
            raise result
        return result

    def load_static(self, relation: str, rows: list) -> int:
        loaded = 0
        for index in range(self.count):
            loaded = self._request(index, "load_static", (relation, rows))
        return loaded

    def apply(self, index: int, events: Sequence[StreamEvent]) -> None:
        # Fire-and-forget: workers drain their pipes concurrently.
        self._connections[index].send(("apply", list(events)))

    def sync(self) -> None:
        for index in range(self.count):
            self._connections[index].send(("sync", None))
        for connection in self._connections:
            connection.recv()

    def result_items(self, index: int, name: str) -> list[tuple[tuple, Any]]:
        return self._request(index, "result_items", name)

    def map_sizes(self, index: int) -> dict[str, int]:
        return self._request(index, "map_sizes", None)

    def memory_bytes(self, index: int) -> int:
        return self._request(index, "memory_bytes", None)

    def statistics(self, index: int) -> dict[str, object]:
        return self._request(index, "statistics", None)

    def enable_provenance(
        self, index: int, depth: int | None, views: list[str] | None
    ) -> None:
        self._request(index, "enable_provenance", (depth, views))

    def explain_row(
        self, index: int, view: str | None, key: tuple | None
    ) -> dict[str, Any]:
        return self._request(index, "explain_row", (view, key))

    def state(self, index: int) -> dict[str, Any]:
        return self._request(index, "state", None)

    def restore(self, index: int, state: dict[str, Any]) -> None:
        self._request(index, "restore", state)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("stop", None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for connection in self._connections:
            try:
                connection.recv()
            except (EOFError, OSError):  # pragma: no cover
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


#: Registered backend names.
BACKENDS = {
    "sequential": SequentialBackend,
    "process": MultiprocessBackend,
}


def make_backend(
    kind: str,
    program: TriggerProgram,
    count: int,
    batch_size: int | None = None,
) -> Backend:
    """Instantiate a backend by name (``"sequential"`` or ``"process"``)."""
    try:
        factory = BACKENDS[kind]
    except KeyError:
        raise ExecutionError(
            f"unknown backend {kind!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    return factory(program, count, batch_size=batch_size)
