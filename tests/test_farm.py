"""Tests for the farm deployment plan and collector."""

import pytest

from repro.farm.collector import FarmCollector
from repro.farm.deployment import (
    HONEYPOT_AS_COUNT,
    HONEYPOT_COUNTRIES,
    build_default_deployment,
)
from repro.geo.registry import GeoRegistry, NetworkType
from repro.net.tcp import SSH_PORT


class TestDeployment:
    @pytest.fixture(scope="class")
    def plan(self):
        return build_default_deployment()

    def test_paper_scale(self, plan):
        # 221 honeypots, 55 countries, 65 ASes (paper Section 4).
        assert plan.n_honeypots == 221
        assert len(plan.countries) == 55
        assert len(plan.honeypot_asns) == HONEYPOT_AS_COUNT == 65

    def test_country_table_consistent(self):
        assert sum(HONEYPOT_COUNTRIES.values()) == 221
        assert len(HONEYPOT_COUNTRIES) == 55

    def test_no_honeypots_in_china(self, plan):
        # The paper notes the farm has no China deployment.
        assert "CN" not in plan.countries

    def test_us_and_singapore_host_many(self, plan):
        counts = plan.pots_per_country()
        assert counts["US"] > 10
        assert counts["SG"] > 5

    def test_unique_ids_and_ips(self, plan):
        ids = [s.honeypot_id for s in plan.sites]
        ips = [s.ip for s in plan.sites]
        assert len(set(ids)) == 221
        assert len(set(ips)) == 221

    def test_sites_resolvable_in_registry(self, plan):
        for site in plan.sites[:25]:
            found = plan.registry.lookup(site.ip)
            assert found is not None
            assert found.country == site.country
            assert found.asn == site.asn

    def test_site_by_id(self, plan):
        site = plan.site_by_id("hp-001")
        assert site.honeypot_id == "hp-001"
        with pytest.raises(KeyError):
            plan.site_by_id("hp-999")

    def test_residential_focus(self, plan):
        residential = sum(
            1 for s in plan.sites if s.network_type is NetworkType.RESIDENTIAL
        )
        assert residential / len(plan.sites) > 0.5

    def test_build_honeypots(self, plan):
        pots = plan.build_honeypots()
        assert len(pots) == 221
        assert pots[0].honeypot_id == plan.sites[0].honeypot_id

    def test_deterministic(self):
        a = build_default_deployment()
        b = build_default_deployment()
        assert [s.ip for s in a.sites] == [s.ip for s in b.sites]

    def test_too_few_ases_rejected(self):
        with pytest.raises(ValueError):
            build_default_deployment(n_ases=10)


class TestCollector:
    def test_collects_and_geostamps(self):
        registry = GeoRegistry()
        client_as = registry.register_as("CN", NetworkType.RESIDENTIAL)
        client_ip = client_as.prefixes[0].address_at(5)

        plan = build_default_deployment(registry=registry)
        collector = FarmCollector(registry=registry)
        pots = plan.build_honeypots(
            event_sink=collector.on_event, summary_sink=collector.on_summary
        )
        session = pots[0].accept(client_ip, 40000, SSH_PORT, now=0.0)
        session.try_login("root", "pw", 1.0)
        session.input_line("uname -a", 2.0)
        session.client_disconnect(3.0)
        pots[0].reap(4.0)

        assert collector.sessions_total == 1
        store = collector.build_store()
        assert len(store) == 1
        record = store.record(0)
        assert record.client_country == "CN"
        assert record.client_asn == client_as.asn
        assert record.protocol == "ssh"
        assert record.commands == ("uname -a",)

    def test_event_retention_optional(self):
        collector = FarmCollector(keep_events=False)
        from repro.honeypot.events import EventType, HoneypotEvent
        collector.on_event(HoneypotEvent(EventType.SESSION_CONNECT, 0.0, "s", "h"))
        assert collector.events == []
        keeper = FarmCollector(keep_events=True)
        keeper.on_event(HoneypotEvent(EventType.SESSION_CONNECT, 0.0, "s", "h"))
        assert len(keeper.events) == 1

    def test_per_honeypot_counter(self):
        collector = FarmCollector()
        from repro.store.records import SessionRecord
        for pot in ("a", "a", "b"):
            collector.add_record(SessionRecord(
                start_time=0.0, duration=1.0, honeypot_id=pot, protocol="ssh",
                client_ip=1, client_asn=-1, client_country="",
                n_login_attempts=0, login_success=False,
            ))
        assert collector.sessions_by_honeypot == {"a": 2, "b": 1}
