"""Figure 17: unique hashes per day and the fresh-hash fraction."""

from common import echo, heading, print_series

from repro.core.freshness import freshness_report


def test_fig17(occurrences):
    report = freshness_report(occurrences)
    heading("Figure 17 — hash freshness",
            "daily unique hashes vary tens..3000; fresh share 2-60%; "
            "shrinking memory (all -> 30d -> 7d) raises the fresh share")
    print_series("  unique hashes/day", report.unique_per_day, points=6)
    frac_all = report.fresh_fraction()
    frac_30 = report.fresh_fraction(30)
    frac_7 = report.fresh_fraction(7)
    active = report.unique_per_day > 0
    echo(f"  mean fresh share: all-time {frac_all[active].mean():.1%}, "
          f"30d {frac_30[active].mean():.1%}, 7d {frac_7[active].mean():.1%}")
    echo(f"  fresh-share range (all-time): "
          f"{frac_all[active].min():.1%} .. {frac_all[active].max():.1%}")
    assert frac_7[active].mean() >= frac_30[active].mean() >= frac_all[active].mean()
    assert frac_all[active].max() > 0.2  # fresh attacks appear all the time
    assert report.unique_per_day.max() > 3 * max(report.unique_per_day.mean(), 1)
