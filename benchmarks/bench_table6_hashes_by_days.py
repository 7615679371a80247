"""Table 6: top-20 hashes sorted by number of active days."""

from common import echo, heading

from repro.core.hashes import top_hash_table


def test_table6(store, dataset, hash_stats, campaign_labels):
    rows = top_hash_table(hash_stats, store, dataset.intel, "days", 20,
                          campaign_labels)
    heading("Table 6 — top-20 hashes by #active days",
            "H1 active 484/486 days; long-lived mirai variants and "
            "few-IP trojans (H38/H40/H41 run by 3-5 IPs for months)")
    for r in rows:
        echo(f"  {r.rank:2d}. {r.hash_label:<10} days={r.n_days:>3} "
              f"clients={r.n_clients:>6,} sessions={r.n_sessions:>8,} "
              f"pots={r.n_honeypots:>3} tag={r.tag}")
    assert rows[0].hash_label == "H1"
    assert rows[0].n_days > 400
    # Few-IP long-lived campaigns are visible in the top-20.
    assert any(r.n_clients <= 5 and r.n_days >= 60 for r in rows)
