"""Tests for hash-freshness metrics (Figure 17)."""

import numpy as np

from repro.core.freshness import (
    fresh_hashes_per_honeypot,
    freshness_report,
)
from repro.core.hashes import HashOccurrences
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder

H1 = "1" * 64
H2 = "2" * 64


def store_with_days(hash_days):
    """hash_days: {hash: [day, ...]} one session per (hash, day)."""
    builder = StoreBuilder()
    for h, days in hash_days.items():
        for day in days:
            builder.append(SessionRecord(
                start_time=day * 86_400.0, duration=1.0, honeypot_id="p0",
                protocol="ssh", client_ip=1, client_asn=1, client_country="US",
                n_login_attempts=1, login_success=True, commands=("x",),
                file_hashes=(h,),
            ))
    return builder.build()


class TestFreshness:
    def test_unique_per_day(self):
        store = store_with_days({H1: [0, 1], H2: [1]})
        report = freshness_report(HashOccurrences.build(store))
        assert report.unique_per_day[0] == 1
        assert report.unique_per_day[1] == 2

    def test_first_seen(self):
        store = store_with_days({H1: [0, 1], H2: [1]})
        report = freshness_report(HashOccurrences.build(store))
        assert report.fresh_all_time[0] == 1  # H1 first seen day 0
        assert report.fresh_all_time[1] == 1  # H2 first seen day 1

    def test_window_freshness(self):
        # H1 appears on day 0 and day 40: within a 30-day window it is
        # fresh again on day 40; within all-time memory it is not.
        store = store_with_days({H1: [0, 40]})
        report = freshness_report(HashOccurrences.build(store), windows=(7, 30))
        assert report.fresh_all_time[40] == 0
        assert report.fresh_window[30][40] == 1
        assert report.fresh_window[7][40] == 1

    def test_window_not_fresh_within(self):
        store = store_with_days({H1: [0, 5]})
        report = freshness_report(HashOccurrences.build(store), windows=(7,))
        assert report.fresh_window[7][5] == 0

    def test_shrinking_memory_increases_freshness(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        report = freshness_report(occ)
        # Paper: fresh share grows as memory shrinks (all -> 30d -> 7d).
        assert report.fresh_window[7].sum() >= report.fresh_window[30].sum()
        assert report.fresh_window[30].sum() >= report.fresh_all_time.sum()

    def test_fresh_fraction_bounds(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        report = freshness_report(occ)
        for window in (None, 7, 30):
            frac = report.fresh_fraction(window)
            assert (frac >= 0).all() and (frac <= 1).all()

    def test_total_first_seen_equals_hash_count(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        report = freshness_report(occ)
        assert report.fresh_all_time.sum() == occ.n_hashes

    def test_empty(self):
        report = freshness_report(HashOccurrences.build(StoreBuilder().build()))
        assert report.unique_per_day.sum() == 0


class TestFreshPerHoneypot:
    def test_discovery_credited_to_earliest_pot(self):
        builder = StoreBuilder()
        for pot, start in (("p0", 5.0), ("p1", 1.0)):
            builder.append(SessionRecord(
                start_time=start, duration=1.0, honeypot_id=pot,
                protocol="ssh", client_ip=1, client_asn=1, client_country="US",
                n_login_attempts=1, login_success=True, commands=("x",),
                file_hashes=(H1,),
            ))
        store = builder.build()
        credited = fresh_hashes_per_honeypot(HashOccurrences.build(store))
        p1 = store.honeypots.id_of("p1")
        assert credited[p1] == 1
        assert credited.sum() == 1

    def test_sums_to_hash_count(self, small_dataset):
        occ = HashOccurrences.build(small_dataset.store)
        credited = fresh_hashes_per_honeypot(occ)
        assert credited.sum() == occ.n_hashes

    def test_collectors_are_early_observers(self, small_dataset):
        # Paper Section 8.4: pots with the most hashes also tend to see
        # hashes first.
        from repro.core.hashes import hashes_per_honeypot
        occ = HashOccurrences.build(small_dataset.store)
        per_pot = hashes_per_honeypot(occ)
        credited = fresh_hashes_per_honeypot(occ)
        top = np.argsort(per_pot)[::-1][:20]
        rest = np.argsort(per_pot)[::-1][20:]
        assert credited[top].mean() > credited[rest].mean()
