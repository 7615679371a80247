"""Figure 2: number of sessions per honeypot, sorted by activity."""

import numpy as np
from common import assert_claim, echo, heading

from repro.core.activity import ActivitySummary, sorted_activity


def test_fig02(dataset, store):
    counts = sorted_activity(store)
    summary = ActivitySummary.compute(store)
    heading("Figure 2 — sessions per honeypot (sorted)",
            "top-10 pots see 14% of sessions; knee near rank 11; most "
            "targeted pot >30x the least; min pot still >360k sessions")
    idx = np.unique(np.geomspace(1, len(counts), 10).astype(int)) - 1
    echo("  sorted curve: " + ", ".join(
        f"r{int(i) + 1}={counts[i]:,}" for i in idx))
    echo(f"  knee rank (max-chord-distance heuristic): {summary.knee_rank}")
    assert_claim(dataset, "top-10 session share")
    assert_claim(dataset, "max/min pot sessions")
    assert (counts > 0).all()
