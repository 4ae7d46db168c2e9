"""Online view auditing: sampled re-derivation against the reference oracle.

Incremental view maintenance is only worth trusting if its answers can be
checked *while it runs*.  :class:`ViewAuditor` mirrors the base relations it
observes (statics at load time, stream events at ingest time) into plain
multiset tables, and every ``check_every`` events re-derives a sample of view
rows from scratch with :func:`repro.runtime.reference.evaluate_reference` —
the same deliberately independent evaluator the test suite uses as its
correctness oracle — comparing them against the live incremental state.

The comparison contract matches the repository's exactness claims: values in
the exact regime (ints, Fractions, strings, booleans) must compare equal,
while floats are compared with a relative tolerance — incremental float sums
reassociate, so bit-identity is not a meaningful target there.

Small views (at most ``sample_rows`` live rows) are checked in full, both
directions, so dropped rows are caught too; larger views spot-check a
deterministic random sample of live keys with a key-bound reference
evaluation (cheap: the binding prunes the nested-loop join).  Drift is
counted, bounded divergence details are kept for reports, counters are
published into a :class:`~repro.telemetry.core.MetricRegistry`, and an
optional fail-fast mode raises :class:`~repro.errors.AuditError` on the
first divergence.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping, Sequence

from repro.compiler.program import MapDeclaration, TriggerProgram
from repro.core.values import is_zero
from repro.delta.events import StreamEvent
from repro.errors import AuditError
from repro.runtime.reference import evaluate_reference

#: Check cadence: audit once per this many ingested events.
DEFAULT_CHECK_EVERY = 256

#: Rows sampled per view per check (small views are checked in full).
DEFAULT_SAMPLE_ROWS = 8

#: Relative tolerance for float comparisons (exact types compare with ``==``).
FLOAT_RTOL = 1e-9

#: Divergence details retained for reports (counters are never truncated).
MAX_DIVERGENCES = 32


def values_match(expected: Any, actual: Any, rtol: float = FLOAT_RTOL) -> bool:
    """The audit comparison: exact for exact types, ``rtol`` for floats."""
    if isinstance(expected, float) or isinstance(actual, float):
        try:
            expected_f = float(expected)
            actual_f = float(actual)
        except (TypeError, ValueError):
            return False
        scale = max(abs(expected_f), abs(actual_f))
        return abs(expected_f - actual_f) <= rtol * max(scale, 1.0)
    return expected == actual


class AuditReport:
    """Outcome of one audit pass (and the shape of cumulative summaries)."""

    __slots__ = ("version", "views", "rows_checked", "divergences", "full")

    def __init__(self, version: int) -> None:
        self.version = version
        self.views: list[str] = []
        self.rows_checked = 0
        self.divergences: list[dict[str, Any]] = []
        self.full: list[str] = []

    @property
    def clean(self) -> bool:
        return not self.divergences

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "views": list(self.views),
            "rows_checked": self.rows_checked,
            "full": list(self.full),
            "clean": self.clean,
            "divergences": list(self.divergences),
        }


class ViewAuditor:
    """Re-derives sampled view rows from mirrored base tables and compares.

    The auditor must observe the *entire* data the engine has seen: call
    :meth:`observe_static` alongside every static load and :meth:`record`
    with every successfully applied event batch (the service does both under
    its ingest lock).  ``views`` defaults to every root query.
    """

    def __init__(
        self,
        program: TriggerProgram,
        views: Sequence[str] | None = None,
        check_every: int = DEFAULT_CHECK_EVERY,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
        seed: int = 0,
        fail_fast: bool = False,
        float_rtol: float = FLOAT_RTOL,
        registry=None,
    ) -> None:
        if check_every < 1:
            raise AuditError(f"check_every must be >= 1, got {check_every}")
        if sample_rows < 1:
            raise AuditError(f"sample_rows must be >= 1, got {sample_rows}")
        self.program = program
        self.check_every = check_every
        self.sample_rows = sample_rows
        self.fail_fast = fail_fast
        self.float_rtol = float_rtol
        self.seed = seed
        self._rng = random.Random(seed)
        names = list(views) if views is not None else sorted(program.roots)
        self._decls: dict[str, MapDeclaration] = {}
        for name in names:
            decl = program.view_map(name)
            if decl is None:
                raise AuditError(
                    f"unknown view {name!r}; available: {sorted(program.roots)}"
                )
            self._decls[name] = decl
        # Base-relation mirror: relation -> {values tuple -> multiplicity}.
        self._tables: dict[str, dict[tuple, Any]] = {
            relation: {} for relation in program.schemas
        }
        self.active = True
        self.inactive_reason: str | None = None
        self._events_since_check = 0
        # Cumulative counters (what the metric collector publishes).
        self.checks = 0
        self.rows_checked = 0
        self.drift_total = 0
        self.last_divergence_version: int | None = None
        self.divergences: list[dict[str, Any]] = []
        if registry is not None:
            registry.add_collector(self._collect)

    # -- telemetry ---------------------------------------------------------------
    def _collect(self, registry) -> None:
        registry.counter(
            "repro_audit_checks_total", help="Audit passes executed"
        ).value = self.checks
        registry.counter(
            "repro_audit_rows_checked_total",
            help="View rows re-derived from the reference oracle",
        ).value = self.rows_checked
        registry.counter(
            "repro_audit_drift_total",
            help="Audited rows whose live value diverged from the reference",
        ).value = self.drift_total
        registry.gauge(
            "repro_audit_active", help="1 while the auditor's mirror is trustworthy"
        ).set(1 if self.active else 0)
        if self.last_divergence_version is not None:
            registry.gauge(
                "repro_audit_last_divergence_version",
                help="Service version of the most recent divergence",
            ).set(self.last_divergence_version)

    # -- observing the data ------------------------------------------------------
    def _store(self, relation: str, values: tuple, delta: Any) -> None:
        table = self._tables[relation]
        total = table.get(values, 0) + delta
        if is_zero(total):
            table.pop(values, None)
        else:
            table[values] = total

    def observe_static(
        self, relation: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> None:
        """Mirror a static bulk load (call alongside ``engine.load_static``)."""
        columns = self.program.schemas[relation]
        for row in rows:
            if isinstance(row, Mapping):
                values = tuple(row[c] for c in columns)
            else:
                values = tuple(row)
            self._store(relation, values, 1)

    def record(self, events: Iterable[StreamEvent]) -> None:
        """Mirror one successfully applied event batch."""
        for event in events:
            self._store(event.relation, tuple(event.values), event.sign)
            self._events_since_check += 1

    # -- checking ----------------------------------------------------------------
    def due(self) -> bool:
        return self.active and self._events_since_check >= self.check_every

    def maybe_check(self, engine, version: int) -> AuditReport | None:
        """Run a check when one is due; returns its report (or ``None``)."""
        if not self.due():
            return None
        return self.check(engine, version)

    def _reference_tables(self) -> dict[str, list[tuple[dict, Any]]]:
        return {
            relation: [
                ({f"_{i}": v for i, v in enumerate(values)}, mult)
                for values, mult in table.items()
            ]
            for relation, table in self._tables.items()
        }

    def _reference_value(
        self, decl: MapDeclaration, key: tuple, tables
    ) -> Any:
        """Re-derive one view row: key-bound reference evaluation."""
        context = dict(zip(decl.keys, key))
        total: Any = 0
        for _, mult in evaluate_reference(decl.definition, tables, context):
            total = total + mult
        return total

    def check(self, engine, version: int | None = None) -> AuditReport:
        """Audit now: sampled (or full, for small views) re-derivation.

        Call with the engine flushed and quiescent (the service holds its
        lock).  Raises :class:`AuditError` on divergence when ``fail_fast``
        is set.
        """
        if not self.active:
            raise AuditError(
                f"auditor is inactive ({self.inactive_reason}); its mirror no "
                f"longer matches the engine"
            )
        if version is None:
            version = engine.events_processed
        self._events_since_check = 0
        self.checks += 1
        report = AuditReport(version)
        tables = self._reference_tables()
        for view, decl in self._decls.items():
            report.views.append(view)
            live = engine.result_dict(view)
            if len(live) <= self.sample_rows:
                # Full bidirectional comparison: also catches dropped rows.
                report.full.append(view)
                expected_rows = evaluate_reference(decl.definition, tables)
                expected = {
                    tuple(row[k] for k in decl.keys): mult
                    for row, mult in expected_rows
                }
                keys = set(live) | set(expected)
                for key in sorted(keys, key=repr):
                    self._compare(
                        report, view, key,
                        expected.get(key, 0), live.get(key, 0), version,
                    )
            else:
                sampled = self._rng.sample(sorted(live, key=repr), self.sample_rows)
                for key in sampled:
                    self._compare(
                        report, view, key,
                        self._reference_value(decl, key, tables),
                        live[key], version,
                    )
        self.rows_checked += report.rows_checked
        if report.divergences and self.fail_fast:
            first = report.divergences[0]
            raise AuditError(
                f"view {first['view']!r} diverged at version {version}: "
                f"key {first['key']} is {first['actual']!r} live but "
                f"{first['expected']!r} by reference re-derivation"
            )
        return report

    def _compare(
        self, report: AuditReport, view: str, key: tuple,
        expected: Any, actual: Any, version: int,
    ) -> None:
        report.rows_checked += 1
        if values_match(expected, actual, self.float_rtol):
            return
        divergence = {
            "view": view,
            "key": list(key),
            "expected": expected,
            "actual": actual,
            "version": version,
        }
        report.divergences.append(divergence)
        self.drift_total += 1
        self.last_divergence_version = version
        if len(self.divergences) < MAX_DIVERGENCES:
            self.divergences.append(divergence)

    # -- summaries / durable state ----------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Cumulative audit counters (the service exposes this in ``stats``)."""
        return {
            "active": self.active,
            "inactive_reason": self.inactive_reason,
            "views": sorted(self._decls),
            "check_every": self.check_every,
            "sample_rows": self.sample_rows,
            "fail_fast": self.fail_fast,
            "checks": self.checks,
            "rows_checked": self.rows_checked,
            "drift_total": self.drift_total,
            "last_divergence_version": self.last_divergence_version,
            "divergences": list(self.divergences),
        }

    def state(self) -> dict[str, Any]:
        """Mirror plus counters, for the service checkpoint."""
        return {
            "tables": {
                relation: list(table.items())
                for relation, table in self._tables.items()
            },
            "checks": self.checks,
            "rows_checked": self.rows_checked,
            "drift_total": self.drift_total,
            "last_divergence_version": self.last_divergence_version,
            "seed": self.seed,
        }

    def restore(self, state: Mapping[str, Any] | None) -> None:
        """Reload a checkpointed mirror; ``None`` deactivates the auditor.

        A checkpoint without audit state cannot rebuild the base-relation
        mirror, so the auditor stops checking rather than comparing against
        a wrong reference.
        """
        if state is None:
            self.active = False
            self.inactive_reason = "restored a checkpoint without audit state"
            for table in self._tables.values():
                table.clear()
            return
        for table in self._tables.values():
            table.clear()
        for relation, items in state.get("tables", {}).items():
            if relation not in self._tables:
                continue
            self._tables[relation] = {
                tuple(values): mult for values, mult in items
            }
        self.checks = int(state.get("checks", 0))
        self.rows_checked = int(state.get("rows_checked", 0))
        self.drift_total = int(state.get("drift_total", 0))
        self.last_divergence_version = state.get("last_divergence_version")
        self._rng = random.Random(state.get("seed", self.seed))
        self._events_since_check = 0
        self.active = True
        self.inactive_reason = None
