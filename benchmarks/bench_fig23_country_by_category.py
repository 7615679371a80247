"""Figure 23 (appendix): client IPs per country, per session category."""

from common import heading, print_top

from repro.core.clients import clients_per_country_by_category


def test_fig23(store):
    by_cat = clients_per_country_by_category(store)
    heading("Figure 23 — client countries per category",
            "NO_CRED/CMD led by CN; FAIL_LOG tilts to US/JP/VN/SG; NO_CMD "
            "led by RU/DE (the datacenter prefix); CMD+URI led by US/EU")
    for cat, counts in by_cat.items():
        print_top(f"  {cat}", counts, k=6)

    def top(cat, k=6):
        counts = by_cat[cat]
        return [c for c, _ in sorted(counts.items(), key=lambda kv: -kv[1])[:k]]

    assert top("NO_CRED")[0] == "CN"
    assert "RU" in top("NO_CMD", 3)
    # CMD+URI inverts the global mix: US leads, China recedes.
    assert top("CMD_URI")[0] == "US"
    uri_counts = by_cat["CMD_URI"]
    assert uri_counts["US"] > 1.5 * uri_counts.get("CN", 0)
