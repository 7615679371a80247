"""Figure 22: ECDF of attack-campaign length (active days) by tag."""

from common import heading, print_ecdf

from repro.core.hashes import campaign_length_ecdfs


def test_fig22(hash_stats, store, dataset):
    ecdfs = campaign_length_ecdfs(hash_stats, store, dataset.intel)
    heading("Figure 22 — campaign length by attack type",
            "most hashes active a single day; trojans linger longest; "
            "mirai-tagged hashes typically <30 days")
    xs = (1, 2, 7, 30, 100, 400)
    for tag in ("ALL", "mirai", "trojan", "malicious"):
        print_ecdf(f"  {tag}", ecdfs[tag], xs)
    assert ecdfs["ALL"](1) > 0.4  # most hashes: one day
    if ecdfs["mirai"].n and ecdfs["trojan"].n:
        assert ecdfs["trojan"].quantile(0.9) >= ecdfs["mirai"].quantile(0.9)
