"""Discussion: blockable-but-unblocked campaigns (paper Section 9)."""

from common import echo, heading

from repro.core.blocking import blockable_campaigns, blocklist_sweep


def test_blocking(store, dataset, hash_stats):
    campaigns = blockable_campaigns(hash_stats, store, dataset.intel, 5, 30)
    heading("Discussion — blockable campaigns",
            "long-lasting campaigns from a handful of IPs persist for "
            "months with no takedown; botnet campaigns cannot be IP-blocked")
    echo(f"  campaigns with <=5 IPs active >=30 days: {len(campaigns)}")
    for c in campaigns[:6]:
        echo(f"    {c.sha256[:10]}: {c.n_clients} IPs, {c.n_days} days, "
              f"{c.n_honeypots} pots, tag={c.tag}")

    sweep = blocklist_sweep(store, [10, 100, 1000])
    for size, impact in sorted(sweep.items()):
        echo(f"  blocklist of {size:>4}: blocks "
              f"{impact.intrusion_sessions_blocked:.1%} of intrusion "
              f"sessions, fully kills {impact.hashes_fully_blocked:.1%} "
              "of hashes")
    assert len(campaigns) >= 3
    assert (sweep[1000].intrusion_sessions_blocked
            > sweep[10].intrusion_sessions_blocked)
