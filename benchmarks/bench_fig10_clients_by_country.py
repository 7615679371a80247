"""Figure 10: honeypot client IPs per country (all, and CMD sessions)."""

from common import echo, heading, print_top

from repro.core.classify import classify_store
from repro.core.clients import clients_per_country


def test_fig10(store):
    counts = clients_per_country(store)
    heading("Figure 10 — client IPs per country",
            "CN 31%, IN 9%, US 8%, RU/BR/TW 5%, MX/IR 3%; CMD sessions led "
            "by US/CN/JP/IN/BR")
    total = sum(counts.values())
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:8]
    for country, count in top:
        echo(f"  {country}: {count / total:.1%}")
    codes = classify_store(store)
    cmd_mask = (codes == 3) | (codes == 4)
    cmd_counts = clients_per_country(store, cmd_mask)
    print_top("  CMD+CMD_URI countries", cmd_counts, k=6)

    assert max(counts, key=counts.get) == "CN"
    assert counts["CN"] / total > 0.18
    assert "US" in dict(top)
