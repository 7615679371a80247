"""Table 5: top-20 hashes sorted by number of unique client IPs."""

from common import echo, heading

from repro.core.hashes import top_hash_table


def test_table5(store, dataset, hash_stats, campaign_labels):
    rows = top_hash_table(hash_stats, store, dataset.intel, "clients", 20,
                          campaign_labels)
    heading("Table 5 — top-20 hashes by #client IPs",
            "H1 leads with 118,924 IPs, then H3 (12,698), H21 (5,897), "
            "H22 (2,213); Mirai-family variants populate the mid-ranks")
    for r in rows:
        echo(f"  {r.rank:2d}. {r.hash_label:<10} clients={r.n_clients:>6,} "
              f"sessions={r.n_sessions:>8,} days={r.n_days:>3} "
              f"pots={r.n_honeypots:>3} tag={r.tag}")
    assert rows[0].hash_label == "H1"
    # The paper's ordering of the marquee campaigns by client count must
    # hold farm-wide, independent of which mid-tail rows interleave.
    def clients_of(campaign_id):
        c = dataset.campaign(campaign_id)
        hash_id = store.hashes.id_of(c.primary_hash)
        return int(hash_stats.clients[hash_id])

    assert clients_of("H1") > clients_of("H3") > clients_of("H21") \
        > clients_of("H22")
    # The Mirai family really does spread across its pinned pot subset.
    h24 = dataset.campaign("H24")
    h24_pots = int(hash_stats.honeypots[store.hashes.id_of(h24.primary_hash)])
    echo(f"  H24 (mirai family): {clients_of('H24')} clients, "
          f"{h24_pots} pots (pinned subset of 77)")
    assert h24_pots <= 77
