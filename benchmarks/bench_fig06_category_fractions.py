"""Figure 6: category fractions over time + total daily activity."""

from common import heading, print_series

from repro.core.timeseries import category_fractions_over_time


def test_fig06(store):
    fractions = category_fractions_over_time(store)
    heading("Figure 6 — category fractions over time",
            "NO_CRED fraction grows over time; NO_CMD >20% at the window "
            "edges (Russian datacenter prefix); CMD fraction fairly flat")
    for cat in ("NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD_URI"):
        print_series(f"  {cat}", fractions[cat], points=6)
    print_series("  total sessions/day", fractions["total"], points=6)

    no_cred = fractions["NO_CRED"]
    assert no_cred[300:360].mean() > no_cred[10:70].mean()  # scanning grows
    no_cmd = fractions["NO_CMD"]
    assert no_cmd[:60].mean() > 1.5 * no_cmd[200:260].mean()  # edge elevation
    assert no_cmd[440:].mean() > 1.5 * no_cmd[200:260].mean()
