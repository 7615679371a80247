"""Tests for the blocking / takedown analysis (Section 9)."""

import pytest

from repro.core.blocking import (
    blockable_campaigns,
    blocklist_impact,
    blocklist_sweep,
)
from repro.core.hashes import HashOccurrences, compute_hash_stats
from repro.intel.database import IntelDatabase
from repro.intel.tags import ThreatTag
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder

H_FEW = "f" * 64  # campaign by 2 IPs across 40 days
H_BOT = "b" * 64  # botnet hash with 50 IPs, 2 days


def build_store():
    builder = StoreBuilder()
    for day in range(40):
        builder.append(SessionRecord(
            start_time=day * 86_400.0, duration=1.0, honeypot_id="p0",
            protocol="ssh", client_ip=1 + day % 2, client_asn=1,
            client_country="US", n_login_attempts=1, login_success=True,
            commands=("x",), file_hashes=(H_FEW,),
        ))
    for i in range(50):
        builder.append(SessionRecord(
            start_time=100.0 + i, duration=1.0, honeypot_id="p1",
            protocol="ssh", client_ip=1000 + i, client_asn=2,
            client_country="CN", n_login_attempts=1, login_success=True,
            commands=("x",), file_hashes=(H_BOT,),
        ))
    return builder.build()


class TestBlockableCampaigns:
    def test_finds_few_ip_campaign(self):
        store = build_store()
        intel = IntelDatabase()
        intel.register(H_FEW, ThreatTag.TROJAN)
        stats = compute_hash_stats(HashOccurrences.build(store))
        campaigns = blockable_campaigns(stats, store, intel,
                                        max_ips=5, min_days=30)
        assert len(campaigns) == 1
        c = campaigns[0]
        assert c.sha256 == H_FEW
        assert c.n_clients == 2
        assert c.n_days == 40
        assert c.tag == "trojan"

    def test_botnet_not_blockable(self):
        store = build_store()
        stats = compute_hash_stats(HashOccurrences.build(store))
        campaigns = blockable_campaigns(stats, store, IntelDatabase(),
                                        max_ips=5, min_days=1)
        assert all(c.sha256 != H_BOT for c in campaigns)

    def test_sorted_by_days(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        stats = compute_hash_stats(occ)
        campaigns = blockable_campaigns(stats, small_dataset.store,
                                        small_dataset.intel)
        days = [c.n_days for c in campaigns]
        assert days == sorted(days, reverse=True)

    def test_paper_claim_on_generated(self, small_dataset):
        # The paper observes long-lived few-IP campaigns (H2, H38, H40,
        # H41...); the generated farm must contain them too.
        occ = HashOccurrences.build(small_dataset.store)
        stats = compute_hash_stats(occ)
        campaigns = blockable_campaigns(stats, small_dataset.store,
                                        small_dataset.intel,
                                        max_ips=5, min_days=30)
        assert len(campaigns) >= 3


class TestBlocklistImpact:
    def test_blocking_both_few_ips(self):
        store = build_store()
        impact = blocklist_impact(store, blocklist_size=2)
        # The two busiest intrusion IPs are the few-IP campaign's pair.
        assert set(impact.blocked_ips.tolist()) == {1, 2}
        assert impact.intrusion_sessions_blocked == pytest.approx(40 / 90)
        assert impact.hashes_fully_blocked == pytest.approx(0.5)

    def test_blocking_everything(self):
        store = build_store()
        impact = blocklist_impact(store, blocklist_size=100)
        assert impact.intrusion_sessions_blocked == pytest.approx(1.0)
        assert impact.hashes_fully_blocked == pytest.approx(1.0)

    def test_empty_store(self):
        impact = blocklist_impact(StoreBuilder().build(), blocklist_size=10)
        assert impact.intrusion_sessions_blocked == 0.0

    def test_sweep_monotone(self, small_dataset):
        sweep = blocklist_sweep(small_dataset.store, [10, 100, 1000])
        blocked = [sweep[k].intrusion_sessions_blocked for k in (10, 100, 1000)]
        assert blocked[0] <= blocked[1] <= blocked[2]

    def test_diminishing_returns(self, small_dataset):
        # A small blocklist already removes a disproportionate share of
        # intrusion sessions (the few-IP heavy hitters).
        sweep = blocklist_sweep(small_dataset.store, [20, 200])
        per_ip_small = sweep[20].intrusion_sessions_blocked / 20
        per_ip_large = sweep[200].intrusion_sessions_blocked / 200
        assert per_ip_small > per_ip_large
