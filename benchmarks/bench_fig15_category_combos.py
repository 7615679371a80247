"""Figure 15: clients per category-combination across time."""

from common import heading, print_series

from repro.core.clients import daily_category_combinations


def test_fig15(store):
    combos = daily_category_combinations(store)
    heading("Figure 15 — daily clients per category combination",
            "scanning-only dominates (>700k IPs); FAIL_LOG+CMD common on "
            "the same day; NO_CRED+CMD same-day is rare")
    for combo, series in combos.items():
        print_series("  " + "+".join(combo), series, points=5)
    totals = {combo: int(series.sum()) for combo, series in combos.items()}
    assert totals[("NO_CRED",)] == max(totals.values())
    assert totals[("FAIL_LOG", "CMD")] > totals[("NO_CRED", "CMD")] * 0.2
