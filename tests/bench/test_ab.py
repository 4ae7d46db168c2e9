"""The A/B summary rule of ``benchmarks/ab.py`` on synthetic history rows."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

MANIFEST = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "better": "higher", "bound": 0.25},
        {"name": "latency", "better": "lower", "bound": 0.25},
        {"name": "noisy", "better": "lower", "bound": 0.10},
    ],
}


def _rows(parent, change):
    """History rows for per-pair metric dicts of the two sides."""
    rows = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, metrics in (("parent", p), ("change", c)):
            rows.append({"pair": pair, "side": side,
                         "metrics": {f"w/{k}": v for k, v in metrics.items()}})
    return rows


def test_summary_applies_wins_medians_spread_and_bound():
    pairs = 10
    parent = [{"rate": 100.0 + i, "latency": 10.0, "noisy": 1.0 + i} for i in range(pairs)]
    change = [{"rate": 150.0 + i, "latency": 14.0, "noisy": 1.0 + i} for i in range(pairs)]
    rate, latency, noisy = ab.summarize(_rows(parent, change), MANIFEST)

    # Higher is better: ten wins, medians 104.5 -> 154.5, far beyond the IQR.
    assert (rate["wins"], rate["pairs"]) == (10, 10)
    assert rate["parent_median"] == 104.5 and rate["change_median"] == 154.5
    assert rate["parent_iqr"] == 4.5 and rate["verdict"] == "within bound"
    # Lower is better: 40 % worse is outside a 25 % bound, zero pairs won.
    assert latency["wins"] == 0 and round(latency["worse_by"], 2) == 0.40
    assert latency["verdict"] == "OUTSIDE bound"
    # Equal on both sides (ties win nothing) but the parent's own spread
    # exceeds the bound: unresolved, not unchanged.
    assert noisy["wins"] == 0 and noisy["worse_by"] == 0
    assert noisy["verdict"].startswith("unresolved")
