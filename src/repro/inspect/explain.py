"""Physical-design explain: planned kernels joined with observed behaviour.

``build_explain_report`` produces one ``repro.explain/1`` document for a
trigger program: the planned side comes from
:func:`repro.codegen.describe.describe_program` (probe shapes per map, fused
kernel structure, interpreter fallbacks with their reasons), and the observed
side from an engine's ``statistics()`` dictionary (map sizes, probe/scan
counters, codegen fallback hits, batching/partitioning counters) when one is
supplied.  The per-map ``maps`` section joins both: for every materialized
view, the access shapes the planner chose next to the probe/scan traffic the
live engine actually executed — the document the ROADMAP's adaptive
index/strategy selection consumes, and what ``python -m repro.inspect
explain`` prints.

Every engine mode's ``statistics()`` is one ``repro.stats/1`` document
(partitioned engines already sum their per-partition counters), so the
observed side is a projection of it.  The ``batching`` section is static: the
run policy a batched engine applies to each trigger and the commute table
that bounds its merges.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.codegen.describe import KERNELS_SCHEMA, describe_program
from repro.compiler.program import TriggerProgram
from repro.exec.batching import batch_plan, render_policies
from repro.exec.partitioning import TABLE_COUNTERS

#: Schema tag of the explain document.
EXPLAIN_SCHEMA = "repro.explain/1"


def _observed(statistics: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """The observed side: a projection of one ``repro.stats/1`` document."""
    if statistics is None:
        return None
    observed: dict[str, Any] = {
        "events_processed": statistics["events_processed"],
        "memory_bytes": statistics["memory_bytes"],
        "maps": {
            name: {key: stats[key] for key in TABLE_COUNTERS}
            for name, stats in statistics["maps"].items()
        },
    }
    for section in ("codegen", "batching"):
        if section in statistics:
            observed[section] = dict(statistics[section])
    if "partitioning" in statistics:
        observed["partitioning"] = statistics["partitioning"]["spec"]
    return observed


def build_explain_report(
    program: TriggerProgram,
    query: str | None = None,
    statistics: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``repro.explain/1`` document: plan plus (optional) observation."""
    plan = describe_program(program)
    observed = _observed(statistics)
    observed_maps = (observed or {}).get("maps", {})
    joined: dict[str, dict[str, Any]] = {}
    for name, planned in plan["maps"].items():
        entry: dict[str, Any] = {
            "keys": planned["keys"],
            "level": planned["level"],
            "degree": planned["degree"],
            "access_shapes": planned["access_shapes"],
        }
        if name in observed_maps:
            entry["observed"] = observed_maps[name]
        joined[name] = entry
    return {
        "schema": EXPLAIN_SCHEMA,
        "query": query,
        "views": sorted(program.roots),
        "plan_schema": KERNELS_SCHEMA,
        "plan": plan,
        "maps": joined,
        # Static per program: how a BatchedEngine dispatches each trigger's
        # runs, and which triggers' events its merges may not cross.
        "batching": batch_plan(program).describe(),
        "observed": observed,
    }


def _format_shapes(shapes: Mapping[str, int]) -> str:
    return (
        ", ".join(f"{shape}x{count}" for shape, count in sorted(shapes.items()))
        or "-"
    )


def render_explain_text(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of one explain report."""
    lines: list[str] = []
    plan = report["plan"]
    summary = plan["summary"]
    header = report.get("query") or "/".join(report["views"]) or "program"
    lines.append(
        f"explain {header} (views: {', '.join(report['views']) or '-'})"
    )
    lines.append(
        f"plan: {summary['compiled_statements']} statements compiled, "
        f"{summary['fallback_statements']} interpreter fallbacks; "
        f"{summary['fused_kernels']}/{summary['triggers']} triggers fused "
        f"({summary['deduped_probes']} probes, "
        f"{summary['deduped_scalars']} scalars deduped); "
        f"{summary.get('vectorized_statements', 0)} statements vectorizable"
    )
    lines.append("maps:")
    for name, entry in sorted(report["maps"].items()):
        keys = ", ".join(entry["keys"]) or "-"
        line = (
            f"  {name}[{keys}] level={entry['level']} degree={entry['degree']} "
            f"shapes: {_format_shapes(entry['access_shapes'])}"
        )
        observed = entry.get("observed")
        if observed is not None:
            line += (
                f" | observed entries={observed['entries']} "
                f"probes={observed['probes']} scans={observed['scans']} "
                f"range_probes={observed['range_probes']}"
            )
        lines.append(line)
    lines.append("triggers:")
    for trigger in plan["triggers"]:
        name = f"{trigger['relation']}:{'+' if trigger['op'] == 'insert' else '-'}"
        if trigger["fused"]:
            fusion = trigger["fusion"]
            lines.append(
                f"  {name} fused ({fusion['fused_statements']} statements, "
                f"{fusion['deduped_probes']} probes + "
                f"{fusion['deduped_scalars']} scalars deduped)"
            )
        elif trigger["statements"]:
            lines.append(f"  {name} interpreted")
        else:
            lines.append(f"  {name} no statements")
        for statement in trigger["statements"]:
            if not statement["compiled"]:
                lines.append(
                    f"    fallback {statement['target']}: "
                    f"{statement['fallback_reason']}"
                )
    if report.get("batching"):
        lines.append("batched run policy:")
        lines.extend(render_policies(report["batching"]))
    observed = report.get("observed")
    if observed is not None:
        line = f"observed: events={observed['events_processed']}"
        codegen = observed.get("codegen")
        if codegen:
            line += (
                f" fallback_hits={codegen.get('fallback_hits', 0)}"
                f" fused_kernels={codegen.get('fused_kernels', 0)}"
            )
        batching = observed.get("batching")
        if batching:
            line += (
                f" bulk_events={batching.get('bulk_events', 0)}"
                f" fallback_events={batching.get('fallback_events', 0)}"
                f" vector_events={batching.get('vector_events', 0)}"
                f" runs_bulk={batching.get('runs_bulk', 0)}"
                f" runs_replayed={batching.get('runs_replayed', 0)}"
            )
            fallbacks = batching.get("vector_fallbacks") or {}
            if fallbacks:
                detail = ",".join(
                    f"{reason}x{count}" for reason, count in sorted(fallbacks.items())
                )
                line += f" vector_fallbacks={detail}"
            if batching.get("vector_reason"):
                line += f" vector_disabled={batching['vector_reason']!r}"
        if "partitioning" in observed and observed["partitioning"]:
            line += f" partitions={observed['partitioning'].get('partitions')}"
        lines.append(line)
    else:
        lines.append("observed: (no runtime statistics; plan only)")
    return "\n".join(lines)
