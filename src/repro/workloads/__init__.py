"""Workloads: the paper's three query/data families plus a unified registry.

* :mod:`repro.workloads.finance` — algorithmic-trading order-book queries
  (AXF, BSP, BSV, MST, PSP, VWAP) over a synthetic Bids/Asks stream;
* :mod:`repro.workloads.tpch` — TPC-H-like decision-support queries over a
  synthetic insert/delete stream with a bounded Orders/Lineitem working set;
* :mod:`repro.workloads.mddb` — molecular-dynamics (MDDB) queries over a
  stream of atom positions with static atom metadata.

:data:`WORKLOADS` maps every query name used in the paper's figures to a
:class:`WorkloadSpec` that knows how to build its catalog, its AGCA roots and
its update stream; the benchmark harness is driven entirely from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.sql.catalog import Catalog
from repro.sql.translate import TranslatedQuery
from repro.streams.agenda import Agenda


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to run one benchmark query.

    ``family`` is ``"finance"``, ``"tpch"`` or ``"mddb"``; ``features``
    carries the Figure-2 style metadata (join count, nesting depth, ...).
    """

    name: str
    family: str
    sql: str
    catalog_factory: Callable[[], Catalog]
    query_factory: Callable[[], TranslatedQuery]
    stream_factory: Callable[..., Agenda]
    static_factory: Callable[..., Mapping[str, list]] | None = None
    description: str = ""
    features: Mapping[str, object] | None = None

    def static_tables(self, **kwargs) -> Mapping[str, list]:
        """Static table contents to load before stream processing (may be empty)."""
        if self.static_factory is None:
            return {}
        return self.static_factory(**kwargs)

    def prepare(
        self, events: int, seed: int, scale: float | None = None
    ) -> tuple[Agenda, Mapping[str, list]]:
        """``(agenda, static tables)`` of one replay of ``events`` updates.

        ``scale`` sizes the generated dataset; only the TPC-H generators take
        it, so it is passed to that family alone.
        """
        sized = {"scale": scale} if scale is not None and self.family == "tpch" else {}
        agenda = self.stream_factory(events=events, seed=seed, **sized)
        return agenda, self.static_tables(seed=seed, **sized)


def _registry() -> dict[str, WorkloadSpec]:
    from repro.workloads import finance, mddb, tpch

    specs: dict[str, WorkloadSpec] = {}
    for module in (finance, tpch, mddb):
        for spec in module.workload_specs():
            if spec.name in specs:
                raise ValueError(f"duplicate workload query name {spec.name!r}")
            specs[spec.name] = spec
    return specs


_CACHE: dict[str, WorkloadSpec] | None = None


def all_workloads() -> dict[str, WorkloadSpec]:
    """The full query registry (lazily built and cached)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = _registry()
    return _CACHE


def workload(name: str) -> WorkloadSpec:
    """Look up one workload query by name (e.g. ``"VWAP"`` or ``"Q3"``)."""
    registry = all_workloads()
    try:
        return registry[name]
    except KeyError:
        raise KeyError(
            f"unknown workload query {name!r}; available: {sorted(registry)}"
        ) from None


__all__ = ["WorkloadSpec", "all_workloads", "workload"]
