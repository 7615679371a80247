"""Tests for the synthetic geo/AS registry."""

import pytest

from repro.geo.continents import (
    ALL_COUNTRIES,
    COUNTRY_CONTINENT,
    Continent,
    continent_of,
)
from repro.geo.registry import GeoRegistry, NetworkType


class TestContinents:
    def test_known_countries(self):
        assert continent_of("CN") is Continent.ASIA
        assert continent_of("DE") is Continent.EUROPE
        assert continent_of("US") is Continent.NORTH_AMERICA
        assert continent_of("BR") is Continent.SOUTH_AMERICA
        assert continent_of("ZA") is Continent.AFRICA
        assert continent_of("AU") is Continent.OCEANIA

    def test_unknown_country_raises(self):
        with pytest.raises(KeyError):
            continent_of("XX")

    def test_every_country_has_continent_and_name(self):
        for cc in ALL_COUNTRIES:
            assert continent_of(cc) in Continent

    def test_paper_client_countries_present(self):
        # The paper's headline client origins must all be modelled.
        for cc in ("CN", "IN", "US", "RU", "BR", "TW", "MX", "IR"):
            assert cc in COUNTRY_CONTINENT


class TestGeoRegistry:
    def test_register_and_lookup(self):
        registry = GeoRegistry()
        record = registry.register_as("DE", NetworkType.RESIDENTIAL)
        addr = record.prefixes[0].address_at(17)
        found = registry.lookup(addr)
        assert found is not None
        assert found.country == "DE"
        assert found.asn == record.asn
        assert found.continent is Continent.EUROPE
        assert found.network_type is NetworkType.RESIDENTIAL

    def test_lookup_unallocated(self):
        registry = GeoRegistry()
        registry.register_as("DE", NetworkType.RESIDENTIAL)
        assert registry.lookup(0) is None

    def test_disjoint_allocations(self):
        registry = GeoRegistry()
        a = registry.register_as("DE", NetworkType.RESIDENTIAL)
        b = registry.register_as("FR", NetworkType.DATACENTER)
        assert registry.lookup(a.prefixes[0].network).country == "DE"
        assert registry.lookup(b.prefixes[0].network).country == "FR"

    def test_multi_prefix_as(self):
        registry = GeoRegistry()
        record = registry.register_as("US", NetworkType.CLOUD, n_prefixes=3)
        assert len(record.prefixes) == 3
        for prefix in record.prefixes:
            assert registry.lookup(prefix.network).asn == record.asn

    def test_asn_uniqueness(self):
        registry = GeoRegistry()
        asns = {registry.register_as("US", NetworkType.CLOUD).asn for _ in range(50)}
        assert len(asns) == 50

    def test_explicit_asn(self):
        registry = GeoRegistry()
        record = registry.register_as("JP", NetworkType.MOBILE, asn=65000)
        assert record.asn == 65000
        with pytest.raises(ValueError):
            registry.register_as("JP", NetworkType.MOBILE, asn=65000)

    def test_invalid_country_rejected(self):
        with pytest.raises(KeyError):
            GeoRegistry().register_as("XX", NetworkType.RESIDENTIAL)

    def test_ases_in_country(self):
        registry = GeoRegistry()
        registry.register_as("DE", NetworkType.RESIDENTIAL)
        registry.register_as("DE", NetworkType.DATACENTER)
        registry.register_as("FR", NetworkType.RESIDENTIAL)
        assert [r.country for r in registry.records()].count("DE") == 2

    def test_len(self):
        registry = GeoRegistry()
        registry.register_as("DE", NetworkType.RESIDENTIAL)
        assert len(registry) == 1

    def test_pool_from_record(self):
        registry = GeoRegistry()
        record = registry.register_as("DE", NetworkType.RESIDENTIAL)
        pool = record.pool()
        addr = pool.allocate_sequential()
        assert registry.lookup(addr).country == "DE"
