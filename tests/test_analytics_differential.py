"""Differential harness: streaming sketches vs the batch pipeline.

The streaming :class:`StreamingAnalytics` consumer and the batch
:class:`AnalysisContext` queries are two independent implementations of
the same aggregates.  This suite feeds both from one generated dataset
and pins the contract:

* **exact** answers (category mix, shares, sessions/day, session count)
  must match the batch group-bys bit for bit;
* **approximate** answers (HLL uniques, count-min occurrences, top-k
  tables) must land inside their documented error envelopes;
* the answers must be **independent of sharding**: per-shard consumers
  folded in any order match the single-pass consumer (exactly for the
  exact/HLL/count-min components, within the envelope for truncated
  top-k), and inline/pool backends at workers 1/2/4 produce identical
  stores and therefore identical analytics.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analytics import StreamingAnalytics, replay_store_events
from repro.core.classify import CATEGORIES, classify_store, category_shares
from repro.core.clients import unique_client_count
from repro.core.hashes import HashOccurrences, compute_hash_stats
from repro.core.timeseries import daily_totals

#: Small but structured: ~5k sessions, ~750 distinct clients (more than
#: the 512-entry top-k capacity, so truncation paths are exercised),
#: ~340 distinct hashes (fewer than capacity, so top-hashes stay exact).
CONFIG = repro.ScenarioConfig(scale=1 / 80000, seed=17, hash_scale=0.004)


@pytest.fixture(scope="module")
def dataset():
    return repro.generate(CONFIG, backend="inline", workers=1)


@pytest.fixture(scope="module")
def store(dataset):
    return dataset.store


@pytest.fixture(scope="module")
def streaming(store):
    analytics = StreamingAnalytics()
    analytics.ingest_store(store)
    return analytics


class TestExactAnswers:
    """Streaming == batch, bit for bit, for the exact accumulators."""

    def test_session_count(self, streaming, store):
        assert streaming.session_count() == len(store)

    def test_category_counts_match_classify_store(self, streaming, store):
        codes = classify_store(store)
        batch = np.bincount(codes, minlength=len(CATEGORIES))
        got = streaming.category_counts()
        for code, category in enumerate(CATEGORIES):
            assert got[category.value] == int(batch[code])

    def test_category_shares_match_batch_floats(self, streaming, store):
        batch = category_shares(store)
        got = streaming.category_shares()
        for category, share in batch.items():
            assert got[category.value] == share  # same division, exact

    def test_sessions_per_day_match_daily_totals(self, streaming, store):
        batch = daily_totals(store)
        got = streaming.sessions_per_day(n_days=len(batch))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, batch)


class TestApproximateAnswers:
    """Sketch answers vs batch ground truth, inside documented bounds."""

    def test_unique_clients_within_three_sigma(self, streaming, store):
        true = unique_client_count(store)
        est = streaming.unique_clients()
        assert abs(est - true) <= 3 * streaming.hll_clients.rel_error * true
        low, high = streaming.hll_clients.interval()
        assert low <= true <= high

    def test_unique_hashes_within_three_sigma(self, streaming, store):
        true = HashOccurrences.build(store).n_hashes
        est = streaming.unique_hashes()
        assert abs(est - true) <= 3 * streaming.hll_hashes.rel_error * true

    def test_hash_session_estimates_one_sided(self, streaming, store):
        occ = HashOccurrences.build(store)
        stats = compute_hash_stats(occ)
        slack = streaming.cms_hashes.error_bound()
        misses = 0
        for hash_id, true in zip(stats.hash_id, stats.sessions):
            sha = store.hashes.value_of(int(hash_id))
            est = streaming.hash_sessions_estimate(sha)
            assert est >= int(true)  # never an underestimate
            if est > int(true) + slack:
                misses += 1
        # eps*N slack is per-query at confidence 1-delta, not uniform.
        assert misses <= max(1, 2 * streaming.cms_hashes.delta * len(stats))

    def test_top_hashes_exact_below_capacity(self, streaming, store):
        # ~340 distinct hashes < 512 capacity: the summary never reduced,
        # so the streaming table IS the exact batch table.
        assert streaming.topk_hashes.error() == 0
        stats = compute_hash_stats(HashOccurrences.build(store))
        pairs = [
            (store.hashes.value_of(int(h)), int(n))
            for h, n in zip(stats.hash_id, stats.sessions)
            if n > 0
        ]
        pairs.sort(key=lambda kv: (-kv[1], kv[0]))
        got = streaming.top_hashes(10)
        assert [(sha, lower) for sha, lower, _ in got] == pairs[:10]
        assert all(lower == upper for _, lower, upper in got)

    def test_top_clients_bounds_under_truncation(self, streaming, store):
        # ~750 distinct clients > 512 capacity: reductions fired, so the
        # table is inexact but every entry's envelope must hold.
        assert streaming.topk_clients.error() > 0
        ips, counts = np.unique(store.client_ip, return_counts=True)
        true = dict(zip(ips.tolist(), counts.tolist()))
        for ip, lower, upper in streaming.top_clients(10):
            assert lower <= true[ip] <= upper
        # Heavy hitters above the decrement can never have been evicted.
        err = streaming.topk_clients.error()
        heavy = {int(ip) for ip, n in true.items() if n > err}
        assert heavy <= set(streaming.topk_clients.counts)

    def test_top_asns_exclude_unknown(self, streaming, store):
        table = streaming.top_asns(10)
        assert table
        assert all(asn >= 0 for asn, _, _ in table)
        known = store.client_asn[store.client_asn >= 0]
        asns, counts = np.unique(known, return_counts=True)
        true = dict(zip(asns.tolist(), counts.tolist()))
        for asn, lower, upper in table:
            assert lower <= true[asn] <= upper


class TestEventPathVsStorePath:
    """Replaying the store as events must equal direct store ingestion."""

    def test_event_replay_equals_store_ingest(self, streaming, store):
        replayed = StreamingAnalytics()
        n = replayed.feed_many(replay_store_events(store))
        assert n == replayed.events_seen > len(store)
        assert replayed == streaming

    def test_replay_is_deterministic(self, store):
        first = replay_store_events(store)[:200]
        second = replay_store_events(store)[:200]
        assert first == second


def _session_blocks(events):
    """Chunk a replayed event list into per-session runs."""
    blocks, current = [], []
    for event in events:
        if event["kind"] == "honeypot.session.connect" and current:
            blocks.append(current)
            current = []
        current.append(event)
    if current:
        blocks.append(current)
    return blocks


def _shard_fold(store, n_shards, order=None):
    """Per-shard consumers folded in ``order`` (default: shard order)."""
    blocks = _session_blocks(replay_store_events(store))
    shards = [StreamingAnalytics() for _ in range(n_shards)]
    for i, block in enumerate(blocks):
        shards[i % n_shards].feed_many(block)
    merged = StreamingAnalytics()
    for i in order if order is not None else range(n_shards):
        merged.merge(shards[i])
    return merged


class TestShardMergeInvariance:
    """Folded per-shard consumers match the single-pass consumer."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_fold_matches_single_pass_componentwise(
        self, streaming, store, n_shards
    ):
        merged = _shard_fold(store, n_shards)
        # Exact accumulators, HLLs and count-min fold exactly.
        assert merged.mix == streaming.mix
        assert merged.days == streaming.days
        assert merged.hll_clients == streaming.hll_clients
        assert merged.hll_hashes == streaming.hll_hashes
        assert merged.cms_hashes == streaming.cms_hashes
        # Top-k hashes never truncated at this scale: exact too.
        assert merged.topk_hashes == streaming.topk_hashes
        assert merged.topk_asns.n == streaming.topk_asns.n
        # Top-k clients truncate (>512 distinct): envelope must hold.
        ips, counts = np.unique(store.client_ip, return_counts=True)
        true = dict(zip(ips.tolist(), counts.tolist()))
        for ip, lower, upper in merged.top_clients(10):
            assert lower <= true[ip] <= upper
        assert merged.topk_clients.n == streaming.topk_clients.n

    def test_fold_order_does_not_matter(self, store):
        forward = _shard_fold(store, 4, order=(0, 1, 2, 3))
        scrambled = _shard_fold(store, 4, order=(2, 0, 3, 1))
        assert forward.mix == scrambled.mix
        assert forward.days == scrambled.days
        assert forward.hll_clients == scrambled.hll_clients
        assert forward.hll_hashes == scrambled.hll_hashes
        assert forward.cms_hashes == scrambled.cms_hashes
        assert forward.topk_hashes == scrambled.topk_hashes

    def test_merge_rejects_different_configs(self):
        from repro.analytics import AnalyticsConfig

        a = StreamingAnalytics()
        b = StreamingAnalytics(AnalyticsConfig(hll_p=10))
        with pytest.raises(ValueError):
            a.merge(b)


class TestBackendMatrix:
    """Inline/pool backends at workers 1/2/4: same store, same answers."""

    @pytest.mark.parametrize(
        "backend,workers", [("pool", 2), ("pool", 4)]
    )
    def test_backend_store_and_analytics_identical(
        self, dataset, streaming, backend, workers
    ):
        other = repro.generate(CONFIG, backend=backend, workers=workers)
        assert other.store.content_digest() == dataset.store.content_digest()
        analytics = StreamingAnalytics()
        analytics.ingest_store(other.store)
        assert analytics == streaming


class TestStreamingIntakeUnit:
    """Intake edge paths that the generated dataset never exercises."""

    def test_observe_record_classifies_like_the_batch_rules(self):
        from repro.store.records import SessionRecord

        cases = [
            (dict(n_login_attempts=0, login_success=False), "NO_CRED"),
            (dict(n_login_attempts=2, login_success=False), "FAIL_LOG"),
            (dict(n_login_attempts=1, login_success=True), "NO_CMD"),
            (dict(n_login_attempts=1, login_success=True,
                  commands=("ls",)), "CMD"),
            (dict(n_login_attempts=1, login_success=True,
                  commands=("wget",), uris=("http://x/a",),
                  file_hashes=("h1",)), "CMD_URI"),
        ]
        analytics = StreamingAnalytics()
        for i, (kw, _) in enumerate(cases):
            analytics.observe_record(SessionRecord(
                start_time=86_400.0 * i, duration=5.0, honeypot_id="pot-a",
                protocol="ssh", client_ip=1000 + i, client_asn=i,
                client_country="US", **kw))
        assert analytics.category_counts() == {
            cat: 1 for cat in ("NO_CRED", "FAIL_LOG", "NO_CMD",
                               "CMD", "CMD_URI")
        }
        assert analytics.top_hashes(1)[0][0] == "h1"

    def test_generator_block_events_update_exact_accumulators_only(self):
        analytics = StreamingAnalytics()
        analytics.feed_many([
            {"kind": "generator.block", "ts": 86_400.0,
             "data": {"category": "bg_uri", "sessions": 10}},
            {"kind": "generator.block", "ts": 86_400.0,
             "data": {"campaign": "c1", "session_kind": "CMD",
                      "sessions": 4}},
            {"kind": "generator.block", "ts": 172_800.0,
             "data": {"category": "whatever?", "sessions": 3}},
            # Degenerate blocks are counted as events but add no sessions.
            {"kind": "generator.block", "ts": 86_400.0,
             "data": {"category": "bg_uri", "sessions": 0}},
            {"kind": "generator.block", "data": {"sessions": 5}},
        ])
        assert analytics.events_seen == 5
        assert analytics.session_count() == 17
        counts = analytics.category_counts()
        assert counts["CMD_URI"] == 10
        assert counts["CMD"] == 7  # campaign fallback + unknown fallback
        np.testing.assert_array_equal(
            analytics.sessions_per_day(), np.array([0, 14, 3]))
        # No client/hash detail rides along with a block.
        assert analytics.unique_clients() == 0.0
        assert analytics.top_hashes() == []

    def test_events_for_unknown_sessions_are_ignored(self):
        analytics = StreamingAnalytics()
        analytics.feed({"kind": "honeypot.session.closed", "ts": 10.0,
                        "data": {"session": "never-connected"}})
        assert analytics.events_seen == 1
        assert analytics.session_count() == 0

    def test_empty_analytics_query_surface(self):
        analytics = StreamingAnalytics()
        assert analytics.session_count() == 0
        assert analytics.category_shares() == {
            cat: 0.0 for cat in ("NO_CRED", "FAIL_LOG", "NO_CMD",
                                 "CMD", "CMD_URI")}
        assert analytics.sessions_per_day(3).tolist() == [0, 0, 0]
        assert analytics.sessions_per_day().tolist() == []
        assert analytics != object()

    def test_replay_emits_bare_download_for_hashless_uri_session(self):
        from repro.store.records import SessionRecord
        from repro.store.store import StoreBuilder

        builder = StoreBuilder()
        builder.append(SessionRecord(
            start_time=0.0, duration=8.0, honeypot_id="pot-a",
            protocol="ssh", client_ip=1, client_asn=1, client_country="US",
            n_login_attempts=1, login_success=True,
            commands=("curl http://x/a",), uris=("http://x/a",)))
        events = replay_store_events(builder.build())
        downloads = [e for e in events
                     if e["kind"] == "honeypot.session.file_download"]
        assert len(downloads) == 1
        assert "shasum" not in downloads[0]["data"]
        analytics = StreamingAnalytics()
        analytics.feed_many(events)
        assert analytics.category_counts()["CMD_URI"] == 1
        assert analytics.unique_hashes() == 0.0


class TestCliSurface:
    """Smoke: the panels reach the report and monitor CLIs."""

    def test_report_streaming_panels(self, capsys):
        from repro.__main__ import main

        rc = main([
            "report", "--scale", "80000", "--seed", "17",
            "--hash-scale", "0.004", "--streaming",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-- streaming analytics" in out
        assert "unique clients ~" in out
        assert "category mix:" in out
        assert "top hashes" in out

    def test_monitor_demo_panels(self, capsys):
        from repro.__main__ import main

        rc = main([
            "monitor", "--seed", "7", "--duration", "900", "--pots", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "streaming analytics" in out
        assert "unique clients ~" in out

    def test_render_panels_deterministic(self, streaming):
        assert streaming.render_panels() == streaming.render_panels()
