"""Tests for the federated-honeyfarm analysis (Section 9)."""

import numpy as np
import pytest

from repro.core.federation import (
    coverage_by_farm_size,
    federation_report,
    split_farm,
)
from repro.core.hashes import HashOccurrences
from repro.simulation.rng import RngStream
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def two_pot_store():
    builder = StoreBuilder()
    rows = [
        ("p0", "a" * 64, 0),
        ("p0", "b" * 64, 1),
        ("p1", "a" * 64, 5),  # p1 sees hash a four days after p0
    ]
    for pot, h, day in rows:
        builder.append(SessionRecord(
            start_time=day * 86_400.0, duration=1.0, honeypot_id=pot,
            protocol="ssh", client_ip=1, client_asn=1, client_country="US",
            n_login_attempts=1, login_success=True, commands=("x",),
            file_hashes=(h,),
        ))
    return builder.build()


class TestSplitFarm:
    def test_partition_complete(self):
        parts = split_farm(221, 4)
        all_pots = np.concatenate(parts)
        assert len(all_pots) == 221
        assert len(np.unique(all_pots)) == 221

    def test_roughly_equal(self):
        parts = split_farm(221, 4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_shuffled_split(self):
        parts = split_farm(20, 2, RngStream(1, "split"))
        assert sorted(np.concatenate(parts).tolist()) == list(range(20))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            split_farm(10, 0)


class TestFederationReport:
    def test_two_pot_farm(self):
        store = two_pot_store()
        occ = HashOccurrences.build(store)
        report = federation_report(occ, k=2)
        assert report.n_hashes_total == 2
        coverages = sorted(s.coverage for s in report.sub_farms)
        assert coverages == [0.5, 1.0]  # p1 sees only hash a; p0 sees both

    def test_detection_lag(self):
        store = two_pot_store()
        occ = HashOccurrences.build(store)
        report = federation_report(occ, k=2)
        by_size = {s.n_hashes: s for s in report.sub_farms}
        # p1's only hash was seen by the federation 5 days earlier.
        assert by_size[1].mean_detection_lag == 5.0
        assert by_size[2].mean_detection_lag == 0.0

    def test_federation_gain(self):
        store = two_pot_store()
        occ = HashOccurrences.build(store)
        report = federation_report(occ, k=2)
        assert report.federation_gain == pytest.approx(1.0)  # p0 sees all

    def test_empty(self):
        report = federation_report(HashOccurrences.build(StoreBuilder().build()))
        assert report.sub_farms == []
        assert report.best_coverage == 0.0

    def test_generated_federation_value(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        report = federation_report(occ, k=4, rng=RngStream(3, "fed"))
        # The paper's argument: every sub-farm misses a large share of the
        # union, so sharing data has substantial value.
        assert report.best_coverage < 0.9
        assert report.federation_gain > 1.1


class TestCoverageBySize:
    def test_monotone_in_size(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        curve = coverage_by_farm_size(occ, [1, 10, 50, 221],
                                      RngStream(4, "curve"))
        assert curve[1] < curve[50] <= curve[221]
        assert curve[221] == pytest.approx(1.0)

    def test_single_pot_small(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        curve = coverage_by_farm_size(occ, [1], RngStream(5, "curve"))
        # One honeypot sees only a few percent of the farm's hashes.
        assert curve[1] < 0.15
