"""Frozen inputs: what each workload replays, generated from ``--seed``.

``workloads.json`` fixes every size the results depend on (state size, hence
rate, follows the event count).  The seed reaches the program only through
the events and static tables generated here.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import engines

HERE = Path(__file__).resolve().parent
FROZEN = json.loads((HERE / "workloads.json").read_text())

#: Part ``j`` of a query's input is generated from ``--seed + j * PART_STRIDE``.
PART_STRIDE = 1000

#: ``--smoke`` keeps this share of every stream (and a tenth of the TPC-H scale
#: factor, whose whole dataset is generated before the stream is cut); sizes
#: only, same code path.
SMOKE_SHARE = 0.05


@dataclass
class QueryInput:
    """One query's compiled program plus one part of the stream it replays.

    A query whose cost swings with the seed (the order-book walk decides how
    many price levels VWAP, AXF and MST scan; random atom labels decide
    MDDB1's join size) replays ``parts`` independent streams, each on its own
    engine, and reports them pooled: the seed's say shrinks with the root of
    the part count.
    """

    name: str
    part: int
    spec: object
    translated: object
    program: object
    events: list
    static_tables: dict
    checksum: str
    wire_bytes: int
    delete_fraction: float


def wire_digest(events) -> tuple[str, int]:
    """``(crc32, bytes)`` of the lines a client would send for ``events``."""
    crc = size = 0
    for event in events:
        line = engines.dump_line(engines.event_to_dict(event))
        crc = zlib.crc32(line, crc)
        size += len(line)
    return f"{crc:08x}", size


def batches(events: list, size: int) -> list[list]:
    return [events[i:i + size] for i in range(0, len(events), size)]


class Streams:
    """Generates streams from the seed; queries of one family share a generation.

    Every generator in ``repro.workloads`` yields the same prefix for a
    smaller ``events`` count, so one generation at a family's largest count
    serves every query of the family by slicing.
    """

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.gen_seconds = 0.0
        self._streams: dict[tuple, tuple[int, list]] = {}
        self._statics: dict[tuple, dict] = {}
        self._compiled: dict[str, tuple] = {}

    def scaled(self, count: int, floor: int = 40) -> int:
        """``count`` as frozen, or its smoke-sized share."""
        return max(floor, int(count * SMOKE_SHARE)) if self.smoke else count

    def raw(self, spec, stream: dict, floor: int = 40, part: int = 0) -> list:
        """The unfiltered stream for frozen kwargs ``stream`` (``events`` included)."""
        kwargs = dict(stream)
        events = self.scaled(kwargs.pop("events"), floor)
        if self.smoke and "scale" in kwargs:
            kwargs["scale"] = kwargs["scale"] / 10
        key = (spec.family, part, tuple(sorted(kwargs.items())))
        asked, generated = self._streams.get(key, (0, []))
        if asked < events:
            started = perf_counter()
            generated = list(spec.stream_factory(
                events=events, seed=self.seed + part * PART_STRIDE, **kwargs))
            self.gen_seconds += perf_counter() - started
            self._streams[key] = (events, generated)
        return generated[:events]

    def statics(self, spec, part: int = 0) -> dict:
        if spec.static_factory is None:
            return {}
        key = (spec.family, part)
        if key not in self._statics:
            started = perf_counter()
            self._statics[key] = spec.static_tables(seed=self.seed + part * PART_STRIDE)
            self.gen_seconds += perf_counter() - started
        return self._statics[key]

    def presize(self, names) -> None:
        """Generate each family once: largest count first, the rest are slices."""
        wanted = [(FROZEN["queries"][name]["stream"], name, part)
                  for name in names for part in range(FROZEN["queries"][name].get("parts", 1))]
        for stream, name, part in sorted(wanted, key=lambda w: -w[0]["events"]):
            self.raw(engines.workload(name), stream, part=part)

    def query_inputs(self, name: str) -> list[QueryInput]:
        """Every part of ``name``'s frozen input."""
        return [self.query_input(name, part=part)
                for part in range(FROZEN["queries"][name].get("parts", 1))]

    def query_input(self, name: str, stream: dict | None = None, floor: int = 40,
                    part: int = 0) -> QueryInput:
        """Compile ``name`` and cut its stream: the frozen prefix, filtered to
        the relations its program has non-empty triggers for."""
        spec = engines.workload(name)
        if name not in self._compiled:
            self._compiled[name] = engines.compile_spec(spec)
        translated, program = self._compiled[name]
        raw = self.raw(spec, stream if stream is not None else FROZEN["queries"][name]["stream"],
                       floor, part)
        live = engines.trigger_relations(program)
        filtered = [event for event in raw if event.relation in live]
        deletes = sum(1 for event in filtered if event.sign < 0)
        checksum, wire_bytes = wire_digest(filtered)
        return QueryInput(
            name=name,
            part=part,
            spec=spec,
            translated=translated,
            program=program,
            events=filtered,
            static_tables=self.statics(spec, part),
            checksum=checksum,
            wire_bytes=wire_bytes,
            delete_fraction=deletes / len(filtered) if filtered else 0.0,
        )


def frozen_check(section: dict, seed: int, parts: list[QueryInput], smoke: bool) -> str:
    """``ok`` / ``unfrozen`` / a mismatch message for one generated input.

    ``section`` is the frozen entry that carries ``checksums``: seed ->
    ``[filtered event count, crc32 of each part joined by "+"]``.
    """
    if smoke:
        return "smoke"
    expected = section.get("checksums", {}).get(str(seed))
    if expected is None:
        return "unfrozen"
    got = [sum(len(part.events) for part in parts), "+".join(part.checksum for part in parts)]
    return "ok" if got == expected else f"MISMATCH expected {expected} got {got}"
