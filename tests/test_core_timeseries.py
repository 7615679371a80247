"""Tests for daily time-series analyses (Figures 3/4/6/8/9)."""

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.timeseries import (
    bands_all_honeypots,
    bands_top_honeypots,
    category_bands,
    category_fractions_over_time,
    daily_sessions_matrix,
    daily_totals,
    percentile_bands,
    top_honeypots,
)
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def simple_store():
    builder = StoreBuilder()
    # pot "a": 3 sessions on day 0; pot "b": 1 session on day 1.
    for i in range(3):
        builder.append(SessionRecord(
            start_time=10.0 * i, duration=1.0, honeypot_id="a", protocol="ssh",
            client_ip=i, client_asn=1, client_country="US",
            n_login_attempts=0, login_success=False,
        ))
    builder.append(SessionRecord(
        start_time=86_400.0 + 5, duration=1.0, honeypot_id="b", protocol="ssh",
        client_ip=9, client_asn=1, client_country="US",
        n_login_attempts=0, login_success=False,
    ))
    return builder.build()


class TestMatrix:
    def test_shape_and_counts(self):
        store = simple_store()
        matrix = daily_sessions_matrix(store)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 3  # pot a, day 0
        assert matrix[1, 1] == 1  # pot b, day 1
        assert matrix.sum() == 4

    def test_mask(self):
        store = simple_store()
        mask = store.day == 0
        matrix = daily_sessions_matrix(store, mask)
        assert matrix.sum() == 3


class TestBands:
    def test_percentiles_ordered(self, small_store):
        bands = bands_all_honeypots(small_store)
        assert np.all(bands.p5 <= bands.p25 + 1e-9)
        assert np.all(bands.p25 <= bands.median + 1e-9)
        assert np.all(bands.median <= bands.p75 + 1e-9)
        assert np.all(bands.p75 <= bands.p95 + 1e-9)

    def test_days_axis(self, small_store):
        bands = bands_all_honeypots(small_store)
        assert len(bands.days) == small_store.n_days

    def test_top_bands_higher(self, small_store):
        top = bands_top_honeypots(small_store)
        everyone = bands_all_honeypots(small_store)
        # Top-5% pots see more daily sessions than the full-farm median.
        assert top.median.mean() >= everyone.median.mean()

    def test_percentile_bands_tiny_matrix(self):
        bands = percentile_bands(np.array([[1, 2], [3, 4]]))
        assert bands.median.tolist() == [2.0, 3.0]


class TestTopHoneypots:
    def test_count(self, small_store):
        top = top_honeypots(small_store, 0.05)
        assert len(top) == round(221 * 0.05)

    def test_actually_top(self, small_store):
        counts = np.bincount(small_store.honeypot, minlength=221)
        top = top_honeypots(small_store, 0.05)
        cutoff = np.sort(counts)[::-1][len(top) - 1]
        assert all(counts[i] >= cutoff for i in top)


class TestFractions:
    def test_fractions_sum_to_one(self, small_store):
        fractions = category_fractions_over_time(small_store)
        total = sum(fractions[c.value] for c in CATEGORIES)
        active = fractions["total"] > 0
        assert np.allclose(total[active], 1.0)

    def test_totals_match(self, small_store):
        fractions = category_fractions_over_time(small_store)
        assert fractions["total"].sum() == len(small_store)

    def test_daily_totals_mask(self, small_store):
        mask = small_store.protocol == 0
        assert daily_totals(small_store, mask).sum() == int(mask.sum())


class TestCategoryBands:
    def test_all_categories_present(self, small_store):
        bands = category_bands(small_store)
        assert set(bands) == {c.value for c in CATEGORIES}

    def test_top_fraction_variant(self, small_store):
        bands = category_bands(small_store, 0.05)
        assert set(bands) == {c.value for c in CATEGORIES}

    def test_fail_log_dominates_cmd_uri(self, small_store):
        bands = category_bands(small_store)
        # At small scale per-pot daily medians collapse to zero, so compare
        # the upper band.
        assert bands["FAIL_LOG"].p95.sum() > bands["CMD_URI"].p95.sum()
