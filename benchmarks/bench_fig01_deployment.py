"""Figure 1: presence of 221 honeypots in 55 countries."""

from common import assert_claim, echo, heading, print_top

from repro.farm.deployment import build_default_deployment


def test_fig01(dataset):
    plan = build_default_deployment()
    heading("Figure 1 — honeypot deployment",
            "221 honeypots in 55 countries and 65 ASes; most countries "
            "host one pot, the US and Singapore host several")
    counts = plan.pots_per_country()
    print_top("pots per country", counts, k=10)
    single = sum(1 for v in counts.values() if v == 1)
    echo(f"  countries: {len(counts)}, single-pot countries: {single}, "
          f"ASes: {len(plan.honeypot_asns)}")
    for claim in ("honeypots", "countries", "honeypot ASes"):
        assert_claim(dataset, claim)
    assert counts["US"] == max(counts.values())
