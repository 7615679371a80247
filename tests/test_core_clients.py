"""Tests for client-IP analyses (Figures 10-15)."""

import pytest

from repro.core import clients
from repro.core.classify import CATEGORIES, classify_store
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def tiny_store():
    """Three clients: one scans two pots over two days, one scans once,
    one logs in and runs commands."""
    builder = StoreBuilder()
    rows = [
        # client 1: NO_CRED on pot a (day 0) and pot b (day 1)
        dict(client_ip=1, honeypot_id="a", start_time=10.0,
             n_login_attempts=0, login_success=False, client_country="CN"),
        dict(client_ip=1, honeypot_id="b", start_time=86_400.0 + 10,
             n_login_attempts=0, login_success=False, client_country="CN"),
        # client 2: NO_CRED once
        dict(client_ip=2, honeypot_id="a", start_time=20.0,
             n_login_attempts=0, login_success=False, client_country="US"),
        # client 3: CMD on pot a, same day as its scan
        dict(client_ip=3, honeypot_id="a", start_time=30.0,
             n_login_attempts=0, login_success=False, client_country="DE"),
        dict(client_ip=3, honeypot_id="a", start_time=40.0,
             n_login_attempts=1, login_success=True, commands=("uname",),
             client_country="DE"),
    ]
    for row in rows:
        base = dict(duration=1.0, protocol="ssh", client_asn=7,
                    commands=(), uris=())
        base.update(row)
        builder.append(SessionRecord(**base))
    return builder.build()


class TestUniqueCounts:
    def test_unique_clients(self):
        store = tiny_store()
        assert clients.unique_client_count(store) == 3

    def test_unique_ases(self):
        store = tiny_store()
        assert clients.unique_as_count(store) == 1

    def test_clients_per_country(self):
        counts = clients.clients_per_country(tiny_store())
        assert counts == {"CN": 1, "US": 1, "DE": 1}

    def test_clients_per_country_by_category(self):
        by_cat = clients.clients_per_country_by_category(tiny_store())
        assert by_cat["NO_CRED"] == {"CN": 1, "US": 1, "DE": 1}
        assert by_cat["CMD"] == {"DE": 1}


class TestDailyIps:
    def test_daily_unique(self):
        daily = clients.daily_unique_ips(tiny_store())
        assert daily["NO_CRED"][0] == 3
        assert daily["NO_CRED"][1] == 1
        assert daily["CMD"][0] == 1


class TestPerClientDistributions:
    def test_honeypots_per_client(self):
        counts = clients.honeypots_per_client(tiny_store())
        assert sorted(counts.tolist()) == [1, 1, 2]

    def test_days_per_client(self):
        counts = clients.days_per_client(tiny_store())
        assert sorted(counts.tolist()) == [1, 1, 2]

    def test_ecdf_keys(self):
        ecdfs = clients.honeypots_per_client_ecdfs(tiny_store())
        assert set(ecdfs) == {"ALL"} | {c.value for c in CATEGORIES}

    def test_single_pot_share(self):
        ecdf = clients.honeypots_per_client_ecdfs(tiny_store())["ALL"]
        assert ecdf(1) == pytest.approx(2 / 3)


class TestClientsPerHoneypot:
    def test_counts(self):
        report = clients.clients_per_honeypot_report(tiny_store())
        # pot a: clients 1,2,3; pot b: client 1.
        assert sorted(report.overall.tolist()) == [1, 3]
        assert report.sessions.sum() == 5

    def test_order(self):
        report = clients.clients_per_honeypot_report(tiny_store())
        assert report.overall[report.order[0]] == 3

    def test_category_curves(self):
        report = clients.clients_per_honeypot_report(tiny_store())
        assert report.per_category["CMD"].sum() == 1


class TestMultiCategory:
    def test_share(self):
        # Only client 3 appears in two categories.
        assert clients.multi_category_share(tiny_store()) == pytest.approx(1 / 3)

    def test_combinations(self):
        combos = clients.daily_category_combinations(tiny_store())
        # Client 3 on day 0 did NO_CRED + CMD.
        assert combos[("NO_CRED", "CMD")][0] == 1
        # Clients 1 and 2 on day 0 were scan-only.
        assert combos[("NO_CRED",)][0] == 2
        assert combos[("NO_CRED",)][1] == 1

    def test_combination_keys(self):
        combos = clients.daily_category_combinations(tiny_store())
        assert set(combos) == set(clients.FIG15_COMBOS)


class TestSummary:
    def test_tiny_summary(self):
        summary = clients.clients_overall_summary(tiny_store())
        assert summary["unique_ips"] == 3
        assert summary["share_single_pot"] == pytest.approx(2 / 3)
        assert summary["share_single_day"] == pytest.approx(2 / 3)

    def test_generated_shape(self, small_store):
        summary = clients.clients_overall_summary(small_store)
        # Shape properties from the paper's Section 7.
        assert summary["share_single_pot"] > 0.25
        assert summary["share_single_day"] > 0.35
        assert summary["multi_category_share"] > 0.2
        assert summary["unique_ases"] > 30

    def test_category_ip_ordering(self, small_store):
        codes = classify_store(small_store)
        uniq = {
            cat.value: clients.unique_client_count(small_store, codes == i)
            for i, cat in enumerate(CATEGORIES)
        }
        # Paper: NO_CRED has by far the most IPs; CMD+URI by far the fewest.
        assert uniq["NO_CRED"] > uniq["FAIL_LOG"]
        assert uniq["NO_CRED"] > uniq["CMD"]
        assert uniq["CMD_URI"] < uniq["NO_CMD"]
