"""Tests for client target sets and campaign pot subsets."""

import numpy as np
import pytest

from repro.geo.continents import continent_of
from repro.simulation.rng import RngStream
from repro.store.store import HashBlockCsr
from repro.workload.targets import (
    TargetIndex,
    TargetTable,
    build_subset,
    locality_codes,
    locality_pools,
    subset_selector,
)


@pytest.fixture
def index():
    rng = RngStream(31, "targets")
    weights = rng.random_array(50) + 0.1
    session_w = rng.random_array(50) + 0.1
    return TargetIndex(rng, weights, session_w)


class TestTargetIndex:
    def test_build_respects_breadth(self, index):
        sets = index.build_for(np.array([1, 5, 50, 200]))
        assert len(sets[0].pots) == 1
        assert len(sets[1].pots) == 5
        assert len(sets[2].pots) == 50
        assert len(sets[3].pots) == 50  # clamped to farm size

    def test_pots_distinct(self, index):
        sets = index.build_for(np.array([20]))
        assert len(set(sets[0].pots.tolist())) == 20

    def test_choose_within_set(self, index):
        target = index.build_for(np.array([7]))[0]
        for u in (0.0, 0.3, 0.6, 0.999):
            assert target.choose(u) in set(target.pots.tolist())

    def test_cumulative_monotone(self, index):
        target = index.build_for(np.array([10]))[0]
        assert np.all(np.diff(target.cumulative) >= 0)
        assert target.cumulative[-1] == 1.0


class TestSubsets:
    def test_build_subset_size(self):
        rng = RngStream(32, "subset")
        weights = rng.random_array(100) + 0.1
        subset = build_subset(rng, 100, 30, weights)
        assert len(subset) == 30
        assert len(set(subset.tolist())) == 30

    def test_build_subset_full(self):
        rng = RngStream(33, "subset")
        subset = build_subset(rng, 20, 20, np.ones(20))
        assert np.array_equal(subset, np.arange(20))

    def test_build_subset_clamps(self):
        rng = RngStream(34, "subset")
        assert len(build_subset(rng, 10, 500, np.ones(10))) == 10

    def test_subset_selector(self):
        rng = RngStream(35, "subset")
        session_w = rng.random_array(100) + 0.1
        pots = build_subset(rng, 100, 10, np.ones(100))
        selector = subset_selector(pots, session_w)
        for u in (0.0, 0.5, 0.99):
            assert selector.choose(u) in set(pots.tolist())

    def test_weighted_sampling_prefers_heavy(self):
        rng = RngStream(36, "subset")
        weights = np.ones(50)
        weights[7] = 500.0
        hits = sum(7 in build_subset(rng, 50, 5, weights) for _ in range(50))
        assert hits > 40


class TestTargetTable:
    def test_choose_matches_each_clients_own_set(self, index):
        sets = index.build_for(np.array([1, 3, 50, 7, 20, 2]))
        table = TargetTable(sets)
        rng = RngStream(5, "u")
        clients = rng.randint_array(0, np.full(4000, len(sets)))
        u = rng.random_array(4000)
        got = table.choose(clients, u)
        for c, s in enumerate(sets):
            mask = clients == c
            assert np.array_equal(got[mask], s.choose_many(u[mask]))

    def test_edges_stay_in_the_clients_segment(self, index):
        sets = index.build_for(np.array([4, 50, 4]))
        table = TargetTable(sets)
        clients = np.array([0, 1, 1, 2, 2])
        u = np.array([0.0, 0.0, np.nextafter(1.0, 0.0), 0.0,
                      np.nextafter(1.0, 0.0)])
        got = table.choose(clients, u)
        for c, pot in zip(clients, got):
            assert pot in sets[c].pots


@pytest.fixture(scope="module")
def small_generator():
    from repro.workload.config import ScenarioConfig
    from repro.workload.generator import TraceGenerator

    gen = TraceGenerator(ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004))
    gen._build_day_buckets()
    gen._realize_campaigns()
    return gen


def _brute_force_pools(subset, pot_countries, client_countries):
    """Per client country: (same-country pots, same-continent pots),
    by one loop over the subset per country."""
    out = []
    for cc in client_countries:
        country = [int(p) for p in subset if pot_countries[p] == cc]
        continent = [int(p) for p in subset
                     if continent_of(pot_countries[p]) is continent_of(cc)]
        out.append((country, continent))
    return out


class TestLocalityPools:
    POTS = ["US", "DE", "US", "SG", "FR", "DE", "JP", "US", "BR", "SG"]
    CLIENTS = ["US", "CN", "DE", "BR", "ZA", "JP", "FR", "AU"]

    @pytest.mark.parametrize("subset", [
        np.arange(10), np.array([0, 2, 5, 9]), np.array([3]),
        np.array([1, 4, 6, 7, 8]), np.zeros(0, dtype=np.int32),
    ])
    def test_matches_brute_force(self, subset):
        codes = locality_codes(self.POTS, self.CLIENTS)
        flat, c_off, c_len, k_off, k_len = locality_pools(subset, *codes)
        want = _brute_force_pools(subset, self.POTS, self.CLIENTS)
        for i, (country, continent) in enumerate(want):
            assert flat[c_off[i]:c_off[i] + c_len[i]].tolist() == country
            assert flat[k_off[i]:k_off[i] + k_len[i]].tolist() == continent

    def test_generated_campaigns_match_brute_force(self, small_generator):
        engine = small_generator.engine
        codes = engine.population.country_codes
        for r in small_generator.realized[:40]:
            flat, c_off, c_len, k_off, k_len = engine.locality_pools(r.pot_subset)
            want = _brute_force_pools(r.pot_subset, engine.pot_countries, codes)
            for i, (country, continent) in enumerate(want):
                assert flat[c_off[i]:c_off[i] + c_len[i]].tolist() == country
                assert flat[k_off[i]:k_off[i] + k_len[i]].tolist() == continent


class TestHashBlockTake:
    def test_take_gathers_rows(self):
        block = HashBlockCsr(values=[1, 2, 3, 4, 5, 6], lengths=[2, 0, 3, 1])
        rows = np.array([2, 0, 1, 3, 2])
        got = block.take(rows)
        assert got.lengths.tolist() == [3, 2, 0, 1, 3]
        assert got.values.tolist() == [3, 4, 5, 1, 2, 6, 3, 4, 5]
