"""Figure 16: regional diversity of client/honeypot interactions."""

from common import assert_claim, echo, heading, print_series

from repro.core.classify import classify_store
from repro.core.diversity import COMBO_NAMES, regional_diversity


def test_fig16(dataset, store, pot_countries):
    report = regional_diversity(store, pot_countries)
    heading("Figure 16 — regional diversity (all sessions, and CMD+URI)",
            ">50% of daily client interactions stay entirely out of the "
            "client's continent; CMD+URI shows much more locality")
    for combo, name in COMBO_NAMES.items():
        share = report.share_of(combo)
        if share > 0.005:
            echo(f"  {name:<34} {share:6.1%}")
    print_series("  daily clients", report.daily_clients, points=5)

    codes = classify_store(store)
    uri_report = regional_diversity(store, pot_countries, codes == 4)
    echo(f"  out-of-continent-only: all={report.out_only_share:.1%}, "
          f"CMD+URI={uri_report.out_only_share:.1%} (paper: URI more local)")
    assert_claim(dataset, "out-of-continent-only client-days")
    assert uri_report.out_only_share < report.out_only_share
