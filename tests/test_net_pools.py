"""Tests for address pools."""

import pytest

from repro.net.ip import IPv4Prefix, format_ip
from repro.net.pools import AddressPool
from repro.simulation.rng import RngStream


class TestAddressPool:
    def test_sequential_unique(self):
        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/28")])
        addrs = [pool.allocate_sequential() for _ in range(16)]
        assert len(set(addrs)) == 16

    def test_sequential_in_order(self):
        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/30")])
        assert format_ip(pool.allocate_sequential()) == "192.0.2.0"
        assert format_ip(pool.allocate_sequential()) == "192.0.2.1"

    def test_sequential_exhaustion(self):
        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/31")])
        pool.allocate_sequential()
        pool.allocate_sequential()
        with pytest.raises(RuntimeError):
            pool.allocate_sequential()

    def test_sample_unique(self):
        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/24")])
        rng = RngStream(1, "pool")
        addrs = [pool.sample(rng) for _ in range(100)]
        assert len(set(addrs)) == 100

    def test_sample_within_prefixes(self):
        prefix = IPv4Prefix.parse("198.51.100.0/24")
        pool = AddressPool([prefix])
        rng = RngStream(2, "pool")
        for _ in range(50):
            assert prefix.contains(pool.sample(rng))

    def test_multiple_prefixes(self):
        p1 = IPv4Prefix.parse("192.0.2.0/30")
        p2 = IPv4Prefix.parse("198.51.100.0/30")
        pool = AddressPool([p1, p2])
        addrs = [pool.allocate_sequential() for _ in range(8)]
        assert sum(p1.contains(a) for a in addrs) == 4
        assert sum(p2.contains(a) for a in addrs) == 4

    def test_sample_exhaustion_dense(self):
        pool = AddressPool([IPv4Prefix.parse("192.0.2.0/30")])
        rng = RngStream(3, "pool")
        for _ in range(4):
            pool.sample(rng)
        with pytest.raises(RuntimeError):
            pool.sample(rng)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            AddressPool([])

