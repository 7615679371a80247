"""Tests for the client population model."""

import numpy as np
import pytest

from repro.agents.population import (
    ClientRole,
    OVERALL_COUNTRY_MIX,
    PopulationConfig,
    ROLE_MIX,
    build_population,
)
from repro.geo.registry import GeoRegistry
from repro.simulation.clock import OBSERVATION_DAYS
from repro.simulation.rng import RngStream


@pytest.fixture(scope="module")
def population():
    registry = GeoRegistry()
    return build_population(
        PopulationConfig(n_clients=4000), registry, RngStream(13, "pop")
    )


class TestRoleMix:
    def test_weights_positive(self):
        assert all(w > 0 for _, w in ROLE_MIX)

    def test_scanning_dominates(self, population):
        scan = population.role_count(ClientRole.SCAN)
        assert scan / len(population) > 0.6

    def test_category_ip_ratios(self, population):
        # Paper ordering: NO_CRED >> CMD ~ FAIL_LOG > NO_CMD >> CMD_URI.
        n = len(population)
        scan = population.role_count(ClientRole.SCAN) / n
        scout = population.role_count(ClientRole.SCOUT) / n
        cmd = population.role_count(ClientRole.CMD) / n
        nocmd = population.role_count(ClientRole.NOCMD) / n
        uri = population.role_count(ClientRole.CMDURI) / n
        assert scan > cmd > nocmd > uri
        assert scan > scout > nocmd
        assert uri < 0.05

    def test_multi_role_share(self, population):
        roles = population.roles.astype(int)
        multi = sum(1 for r in roles if bin(r).count("1") > 1)
        assert multi / len(population) > 0.30


class TestGeography:
    def test_china_leads(self, population):
        counts = np.bincount(population.country, minlength=len(population.country_codes))
        top = population.country_codes[int(np.argmax(counts))]
        assert top == "CN"

    def test_country_mix_roughly_normalised(self):
        # The mix is normalised at sampling time; the table only needs to be
        # close to a distribution so its entries read as shares.
        total = sum(w for _, w in OVERALL_COUNTRY_MIX)
        assert total == pytest.approx(1.0, abs=0.15)

    def test_ips_resolve_to_assigned_country(self, population):
        for i in range(0, 200, 10):
            found = population.registry.lookup(int(population.ip[i]))
            assert found is not None
            assert found.country == population.country_code(i)
            assert found.asn == population.asn[i]

    def test_unique_ips(self, population):
        assert len(np.unique(population.ip)) == len(population)

    def test_many_ases(self, population):
        assert len(np.unique(population.asn)) > 30


class TestActivity:
    def test_first_day_in_window(self, population):
        assert population.first_day.min() >= 0
        assert population.first_day.max() < OBSERVATION_DAYS

    def test_majority_single_day(self, population):
        assert (population.n_days == 1).mean() > 0.5

    def test_always_on_clients_exist(self, population):
        long_lived = population.n_days > 0.9 * OBSERVATION_DAYS
        assert long_lived.sum() >= 2

    def test_days_fit_window(self, population):
        assert np.all(
            population.first_day + population.n_days <= OBSERVATION_DAYS
        )

    def test_rates_positive_heavy_tailed(self, population):
        assert (population.rate > 0).all()
        assert population.rate.max() / np.median(population.rate) > 10


class TestBreadth:
    def test_breadth_bounds(self, population):
        assert population.breadth.min() >= 1
        assert population.breadth.max() <= 221

    def test_large_single_pot_share(self, population):
        assert 0.3 < (population.breadth == 1).mean() < 0.6

    def test_some_clients_sweep_farm(self, population):
        assert (population.breadth > 110).sum() >= 5

    def test_scouts_reach_further(self):
        registry = GeoRegistry()
        pop = build_population(PopulationConfig(n_clients=6000), registry,
                               RngStream(14, "pop2"))
        scouts = pop.with_role(ClientRole.SCOUT)
        scan_only = np.array([
            i for i in range(len(pop))
            if pop.roles[i] == int(ClientRole.SCAN)
        ])
        assert pop.breadth[scouts].mean() > pop.breadth[scan_only].mean()


class TestSampling:
    def test_sample_intruders_role(self, population):
        rng = RngStream(1, "sample")
        picked = population.sample_intruders(rng, 50, role=ClientRole.CMD)
        assert len(picked) == 50
        assert all(population.roles[i] & int(ClientRole.CMD) for i in picked)

    def test_sample_intruders_country_tilt(self, population):
        rng = RngStream(2, "sample")
        picked = population.sample_intruders(
            rng, 200, role=ClientRole.CMD, countries=[("CN", 50.0)]
        )
        countries = [population.country_code(int(i)) for i in picked]
        assert countries.count("CN") / len(countries) > 0.3

    def test_sample_clamps_to_pool(self, population):
        rng = RngStream(3, "sample")
        uri_clients = population.with_role(ClientRole.CMDURI)
        picked = population.sample_intruders(rng, 10 ** 6, role=ClientRole.CMDURI)
        assert len(picked) == len(uri_clients)

    def test_sample_no_duplicates(self, population):
        rng = RngStream(4, "sample")
        picked = population.sample_intruders(rng, 100, role=ClientRole.SCAN)
        assert len(set(int(i) for i in picked)) == len(picked)


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = build_population(PopulationConfig(n_clients=500), GeoRegistry(),
                             RngStream(5, "d"))
        b = build_population(PopulationConfig(n_clients=500), GeoRegistry(),
                             RngStream(5, "d"))
        assert np.array_equal(a.ip, b.ip)
        assert np.array_equal(a.roles, b.roles)
        assert np.array_equal(a.breadth, b.breadth)
