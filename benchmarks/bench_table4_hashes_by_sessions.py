"""Table 4: top-20 hashes sorted by number of sessions."""

from common import echo, heading

from repro.core.hashes import top_hash_table


def test_table4(store, dataset, hash_stats, campaign_labels):
    rows = top_hash_table(hash_stats, store, dataset.intel, "sessions", 20,
                          campaign_labels)
    heading("Table 4 — top-20 hashes by #sessions",
            "H1 (trojan) dominates with 25.7M sessions, >20x the next; "
            "mix of 6 mirai / 5 malicious / 4 trojan / 3 unknown / 2 miners")
    for r in rows:
        echo(f"  {r.rank:2d}. {r.hash_label:<10} sessions={r.n_sessions:>8,} "
              f"clients={r.n_clients:>6,} days={r.n_days:>3} "
              f"pots={r.n_honeypots:>3} tag={r.tag}")
    assert rows[0].hash_label == "H1"
    assert rows[0].tag == "trojan"
    # H1's dominance: >5x the runner-up even at reduced scale.
    assert rows[0].n_sessions > 5 * rows[1].n_sessions
