"""Discussion: the value of federated honeyfarms (paper Section 9)."""

from common import echo, heading

from repro.core.federation import coverage_by_farm_size, federation_report
from repro.simulation.rng import RngStream


def test_federation(occurrences):
    report = federation_report(occurrences, 4, RngStream(11, "fed"))
    heading("Discussion — federated honeyfarms",
            "even the best honeypots see a small fraction of all hashes; "
            "sharing data across farms improves visibility and latency")
    for i, sub in enumerate(report.sub_farms):
        echo(f"  sub-farm {i}: {len(sub.honeypots)} pots, "
              f"{sub.n_hashes:,} hashes ({sub.coverage:.1%} coverage), "
              f"mean detection lag {sub.mean_detection_lag:.1f} days")
    echo(f"  federation gain over best sub-farm: {report.federation_gain:.2f}x")

    curve = coverage_by_farm_size(occurrences, [1, 5, 20, 80, 221],
                                  RngStream(12, "curve"))
    echo("  coverage by farm size: " + ", ".join(
        f"{k} pots={v:.1%}" for k, v in sorted(curve.items())))
    assert report.best_coverage < 0.95
    assert report.federation_gain > 1.05
    assert curve[1] < curve[20] < curve[221]
