"""Extension: behaviour-based campaign detection vs hash ground truth.

Related work (Shamsi et al. 2022) clusters attackers by behaviour; the
paper correlates campaigns by file hash.  This benchmark runs the
behaviour-clustering detector on the trace and validates the clusters
against the hash ground truth.
"""

from common import echo, heading

from repro.core.campaign_detect import detect_campaigns, validate_against_hashes


def test_detection(store):
    campaigns = detect_campaigns(store, 0.7)
    heading("Extension — behaviour-based campaign detection",
            "clusters of similar interaction scripts should align with the "
            "hash-identified campaigns")
    result = validate_against_hashes(store, campaigns)
    echo(f"  detected clusters: {result.n_detected:,}")
    echo(f"  hash-identified campaigns: {result.n_hash_campaigns:,}")
    echo(f"  cluster purity: {result.purity:.1%}")
    echo(f"  campaign recall: {result.recall:.1%}")
    top = campaigns[0]
    echo(f"  biggest cluster: {top.n_sessions:,} sessions, "
          f"{top.n_clients:,} clients, {top.n_honeypots} pots, "
          f"span {top.span_days} days")
    assert result.purity > 0.6
    assert result.recall > 0.8
    assert "authorized_keys" in " ".join(top.representative_commands)
