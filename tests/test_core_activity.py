"""Tests for per-honeypot activity analysis (Figure 2)."""

import numpy as np

from repro.core.activity import (
    ActivitySummary,
    activity_knee,
    max_min_ratio,
    sessions_per_honeypot,
    sorted_activity,
    top_k_share,
)
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def build_store(pot_sessions):
    """A store with the given number of sessions per honeypot id."""
    builder = StoreBuilder()
    for pot, count in pot_sessions.items():
        for i in range(count):
            builder.append(SessionRecord(
                start_time=float(i), duration=1.0, honeypot_id=pot,
                protocol="ssh", client_ip=i, client_asn=1, client_country="US",
                n_login_attempts=0, login_success=False,
            ))
    return builder.build()


class TestCounts:
    def test_sessions_per_honeypot(self):
        store = build_store({"a": 3, "b": 1})
        counts = sessions_per_honeypot(store)
        assert sorted(counts.tolist()) == [1, 3]

    def test_sorted_descending(self):
        store = build_store({"a": 1, "b": 5, "c": 3})
        assert sorted_activity(store).tolist() == [5, 3, 1]

    def test_mask(self):
        store = build_store({"a": 4})
        mask = np.zeros(4, dtype=bool)
        mask[0] = True
        assert sessions_per_honeypot(store, mask).tolist() == [1]


class TestShares:
    def test_top_k_share(self):
        counts = np.array([50, 30, 10, 10])
        assert top_k_share(counts, 1) == 0.5
        assert top_k_share(counts, 2) == 0.8

    def test_top_k_share_empty(self):
        assert top_k_share(np.zeros(5, dtype=int)) == 0.0

    def test_max_min_ratio(self):
        assert max_min_ratio(np.array([30, 3, 1])) == 30.0

    def test_max_min_ignores_zeros(self):
        assert max_min_ratio(np.array([10, 5, 0])) == 2.0

    def test_max_min_empty(self):
        assert max_min_ratio(np.zeros(3, dtype=int)) == 0.0


class TestKnee:
    def test_clear_knee(self):
        # 10 heavy pots then a flat tail -> knee near 10.
        counts = np.array([1000] * 10 + [10] * 100)
        knee = activity_knee(counts)
        assert 8 <= knee <= 12

    def test_uniform_no_strong_knee(self):
        counts = np.full(50, 100)
        assert 1 <= activity_knee(counts) <= 50

    def test_few_points(self):
        assert activity_knee(np.array([5, 3])) == 2

    def test_zeros_excluded(self):
        counts = np.array([100] * 5 + [1] * 20 + [0] * 10)
        assert activity_knee(counts) <= 25


class TestSummary:
    def test_compute(self):
        store = build_store({"a": 60, "b": 30, "c": 2})
        summary = ActivitySummary.compute(store)
        assert summary.total_sessions == 92
        assert summary.max_sessions == 60
        assert summary.min_sessions == 2
        assert summary.max_min_ratio == 30.0

    def test_on_generated_dataset(self, small_store):
        summary = ActivitySummary.compute(small_store)
        # The paper's headline skew properties hold in shape.
        assert summary.max_min_ratio > 5
        assert 0.05 < summary.top10_share < 0.35
