"""What a :class:`repro.obs.Metrics` registry recorded since a snapshot.

Tests take ``snapshot = get_metrics().to_dict()``, run the code under test
and read ``delta_since(get_metrics(), snapshot)``: the counters and spans
that moved in between, with their increments.  The process-wide registry
is shared by every test, so absolute counts would depend on test order.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import Metrics


def delta_since(metrics: Metrics, snapshot: Dict) -> Dict:
    """Counters/spans of ``metrics`` that moved since ``snapshot``
    (a ``to_dict`` form)."""
    base_counters = snapshot.get("counters", {})
    counters = {
        name: value - base_counters.get(name, 0)
        for name, value in metrics.counters.items()
        if value != base_counters.get(name, 0)
    }
    base_spans = snapshot.get("spans", {})
    spans = {}
    for path, cell in metrics.spans.items():
        base = base_spans.get(path, {})
        if cell["count"] != base.get("count", 0):
            spans[path] = {
                "count": cell["count"] - base.get("count", 0),
                "wall": cell["wall"] - base.get("wall", 0.0),
                "cpu": cell["cpu"] - base.get("cpu", 0.0),
            }
    return {"counters": counters, "spans": spans}
