"""Spans recorded from outside the program, and the statistics the benchmark reports.

A span is ``[name, start, end, parent index, batch id]``.  Spans are kept in
memory and written to ``out/trace-<workload>.jsonl`` when the run ends.  The
benchmark wraps calls into a layer's public functions; nothing under ``src/``
is edited or monkey-patched.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

NAME, START, END, PARENT, BATCH = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, batch=None):
        """Run ``fn(*args)`` inside a span named ``name``."""
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, batch]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            return fn(*args)
        finally:
            record[END] = perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, *names: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] in names)

    def self_times(self) -> dict[str, float]:
        """Per name: span durations minus the part their child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + span[END] - span[START] - child_time
        return totals

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, batch) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "batch": batch}) + "\n")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fastest(repeats) -> list[float]:
    """Per position the smallest value over ``repeats`` of the same timed steps.

    The noise of a shared host is one-sided: a busy neighbour or a descheduled
    vCPU makes a step slower, nothing makes it faster.  Whole stretches of a
    run come out 30 % slow, so a median over repeats moves with the stretch it
    fell into; the fastest repeat of each step needs one quiet moment per step.
    """
    return [min(column) for column in zip(*repeats)]


def per_window(samples, q: float, windows: int) -> list[float]:
    """The ``q``-th percentile of each of ``windows`` consecutive cuts of ``samples``."""
    size = max(1, len(samples) // windows)
    return [
        percentile(samples[low:low + size], q)
        for low in range(0, len(samples) - size + 1, size)
    ]


def quietest(samples, q: float, windows: int, usable=None) -> float:
    """The ``q``-th percentile of the consecutive window in which it is smallest.

    For latencies that cannot be repeated step by step (an open loop sends each
    batch once).  One stall delays every request queued behind it, so the
    windows are consecutive, and the one the host left alone is reported.
    ``usable`` masks windows out (one flag per window).
    """
    values = per_window(samples, q, windows)
    if usable is not None:
        values = [value for value, ok in zip(values, usable) if ok]
    return min(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(pid) -> float:
    """``VmHWM`` of a process from ``/proc`` (the kernel's high-water mark)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
