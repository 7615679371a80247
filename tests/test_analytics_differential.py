"""Differential harness: streaming sketches vs the batch pipeline.

The streaming :class:`StreamingAnalytics` consumer and the batch
:class:`AnalysisContext` queries are two independent implementations of
the same aggregates.  This suite feeds both from one generated dataset
and pins the contract:

* **exact** answers (category mix, shares, sessions/day, session count)
  must match the batch group-bys bit for bit;
* **approximate** answers (HLL uniques, top-k tables) must land inside
  their documented error envelopes;
* inline/pool backends at workers 1/2/4 produce identical stores and
  therefore identical analytics, and every intake path (frozen store,
  replayed events, live events) reaches the same state.
"""

from __future__ import annotations

import hashlib
import json

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analytics import (
    CATEGORY_NAMES,
    AnalyticsConfig,
    StreamingAnalytics,
    replay_store_events,
)
from repro.analytics import sketches
from repro.analytics import streaming as streaming_module
from repro.analytics.streaming import FOLD_BATCH
from repro.honeypot.events import EventType, HoneypotEvent, session_category
from repro.obs import get_metrics, use_metrics
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

    def test_repeated_hashes_in_a_row_count_once_on_every_path(self):
        from repro.store.records import SessionRecord
        from repro.store.store import StoreBuilder

        records = [SessionRecord(
            start_time=86_400.0 * i, duration=8.0, honeypot_id="pot-a",
            protocol="ssh", client_ip=1 + i % 2, client_asn=i - 1,
            client_country="US", n_login_attempts=1, login_success=True,
            commands=("wget",), uris=("http://x/a",), file_hashes=hashes)
            for i, hashes in enumerate([("h1", "h2", "h1"), ("h2", "h2"),
                                        (), ("h3", "h1", "h3", "h1")])]
        builder = StoreBuilder()
        for record in records:
            builder.append(record)
        store = builder.build()
        assert len(store.hash_ids.values) == 9  # the store keeps repeats
        by_store = StreamingAnalytics()
        by_store.ingest_store(store)
        by_records = StreamingAnalytics()
        for record in records:
            by_records.observe_session(
                category=session_category(
                    record.n_login_attempts, record.login_success,
                    record.commands, record.uris),
                day=int(record.start_time // 86_400),
                client_ip=record.client_ip,
                asn=record.client_asn, hashes=record.file_hashes)
        by_events = StreamingAnalytics()
        by_events.feed_many(replay_store_events(store))
        assert by_store == by_records == by_events
        assert by_store.top_hashes() == [
            ("h1", 2, 2), ("h2", 2, 2), ("h3", 1, 1)]

    def test_bad_client_ip_raises_at_its_own_session(self):
        def event(kind, session, **data):
            return {"kind": kind, "ts": 10.0,
                    "data": {"session": session, **data}}

        events = [event(kind, session, **({"src_ip": ip} if "connect" in kind
                                          else {}))
                  for session, ip in (("a", 5), ("b", -1), ("c", 6))
                  for kind in ("honeypot.session.connect",
                               "honeypot.session.closed")]
        analytics = StreamingAnalytics()
        with pytest.raises(OverflowError):
            analytics.feed_many(events)
        # "a" is folded on the way out; "b" is refused whole, "c" unread.
        assert analytics.events_seen == 4
        assert analytics.session_count() == 1
        assert analytics.top_clients() == [(5, 1, 1)]

    def test_distinct_per_row_keeps_first_occurrences_in_order(self):
        values = np.array([5, 5, 3, 3, 5, 1, 7], dtype=np.int64)
        offsets = np.array([0, 3, 3, 6, 7], dtype=np.int64)
        assert streaming_module._distinct_per_row(
            values, offsets).tolist() == [5, 3, 3, 5, 1, 7]

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


def intake_state_digest(analytics):
    """sha256 over every accumulator of ``analytics`` and ``events_seen``."""
    h = hashlib.sha256()
    for hll in (analytics.hll_clients, analytics.hll_hashes):
        h.update(hll.registers.tobytes())
    for top in (analytics.topk_hashes, analytics.topk_clients,
                analytics.topk_asns):
        counts = sorted(top.counts.items())
        h.update(f"{counts!r}|{top.n}|{top.decremented}|".encode())
    for exact in (analytics.mix, analytics.days):
        h.update(f"{exact.items()!r}|".encode())
    h.update(str(analytics.events_seen).encode())
    return h.hexdigest()


SKETCH_COUNTERS = ("sketch.sessions_observed", "sketch.events_consumed",
                   "sketch.store_sessions_ingested")

#: 1/40000, seed 2023: the input of the ``stream-10k`` perf workload.
STREAM_10K = repro.ScenarioConfig.from_denominator(40000, seed=2023)

#: (config, intake path) -> (state digest, the three sketch.* counters).
#: Pinned from the per-event if/elif intake; any intake rewrite must
#: reproduce every register and counter.
INTAKE_GOLDEN = {
    ("CONFIG", "ingest_store"): (
        "5e21e8abeb55da63554ccdf45aa7d9e6d4d31ac55e25b6e837058fd30edbc670",
        (5198, 0, 5198)),
    ("CONFIG", "feed_many"): (
        "61c61f5568226a778e83f87f2a0424d58854603a5d8835c369c7851c21bd73a7",
        (5198, 23875, 0)),
    ("STREAM_10K", "ingest_store"): (
        "af1f7ef0fc136dac7342a206906b32b377175005b51cb960f316565d6f1e9b87",
        (10057, 0, 10057)),
    ("STREAM_10K", "feed_many"): (
        "0bcadda71ee12f681c56664735b744ac583716d6658c03dec4de40c050b50372",
        (10057, 45416, 0)),
}


#: Hashes to register 7 of ``hll_clients`` (default config) with all 52
#: tail bits zero, so its rank is the cap, ``65 - p``.
EDGE_IP = 2542010557125171115


def _edge_events():
    """Event kinds and values the replayed stores never produce."""
    def event(kind, ts, session, **data):
        return {"kind": kind, "ts": ts, "data": {"session": session, **data}}

    return [
        event("honeypot.session.connect", 90_000.0, "e1", src_ip=EDGE_IP,
              src_asn=64500),
        event("honeypot.session.connect", 90_001.0, "e2", src_ip=7,
              src_asn=-1),
        event("honeypot.login.failed", 90_002.0, "e1"),
        event("honeypot.login.success", 90_003.0, "e1"),
        event("honeypot.command.input", 90_004.0, "e1"),
        event("honeypot.session.file_modified", 90_005.0, "e1",
              shasum="edge-mod"),
        event("honeypot.session.file_modified", 90_006.0, "e2",
              shasum="edge-e2"),
        event("honeypot.session.file_created", 90_007.0, "e1",
              shasum="edge-new"),
        event("honeypot.session.file_download", 90_008.0, "e1",
              shasum="edge-mod"),
        event("honeypot.session.params", 90_009.0, "e1"),
        event("honeypot.command.input", None, "e2"),
        {"kind": "generator.block", "ts": 200_000.0,
         "data": {"category": "bg_cmd", "sessions": 3}},
        event("honeypot.session.closed", 90_010.0, "e2"),
        event("honeypot.session.closed", 90_011.0, "e1"),
        event("honeypot.session.closed", 90_012.0, "e1"),
    ]


EDGE_GOLDEN = (
    "8e582591d58d8f9d4250a87dc8a403af0f06f3da9b029bfda50d9936a2d6d685",
    (5, 14, 0))


def _intake(store, path):
    """Run one intake path on a fresh registry: (analytics, counters)."""
    analytics = StreamingAnalytics()
    events = replay_store_events(store) if path == "feed_many" else None
    with use_metrics():
        if events is None:
            analytics.ingest_store(store)
        else:
            analytics.feed_many(events)
        counters = get_metrics().counters
        pinned = tuple(int(counters.get(name, 0)) for name in SKETCH_COUNTERS)
    return analytics, pinned


class TestPinnedIntakeState:
    """Full intake state and counters pinned for both intake paths."""

    @pytest.fixture(scope="class")
    def stores(self, store):
        return {
            "CONFIG": store,
            "STREAM_10K": repro.generate(
                STREAM_10K, backend="inline", workers=1).store,
        }

    @pytest.mark.parametrize("key", sorted(INTAKE_GOLDEN))
    def test_intake_state_pinned(self, stores, key):
        name, path = key
        analytics, counters = _intake(stores[name], path)
        assert (intake_state_digest(analytics), counters) == \
            INTAKE_GOLDEN[key]

    def test_edge_stream_pinned(self):
        # The rank cap and the file_modified step, which the replayed
        # stores never reach.
        analytics = StreamingAnalytics()
        with use_metrics():
            analytics.feed_many(_edge_events())
            counters = get_metrics().counters
            pinned = tuple(int(counters.get(n, 0)) for n in SKETCH_COUNTERS)
        assert analytics.hll_clients.registers[7] == 65 - analytics.hll_clients.p
        assert (intake_state_digest(analytics), pinned) == EDGE_GOLDEN


_SESSION_KINDS = [
    "honeypot.session.connect", "honeypot.login.failed",
    "honeypot.login.success", "honeypot.command.input",
    "honeypot.session.file_download", "honeypot.session.file_created",
    "honeypot.session.file_modified", "honeypot.session.closed",
    "honeypot.client.version", "honeypot.command.failed",
]


@st.composite
def honeypot_events(draw):
    """One honeypot-shaped event dict: it has a ts, a data dict and a
    session, so it also converts to a :class:`HoneypotEvent`."""
    kind = draw(st.sampled_from(_SESSION_KINDS))
    data = {"session": draw(st.sampled_from(["s0", "s1", "s2", "s3", ""]))}
    if kind == "honeypot.session.connect":
        data["src_ip"] = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
        data["src_asn"] = draw(st.one_of(st.none(), st.integers(-1, 9)))
    elif "file_" in kind and draw(st.booleans()):
        data["shasum"] = draw(st.sampled_from(["h0", "h1", "h2", ""]))
    ts = draw(st.floats(0.0, 4 * 86_400.0))
    return {"kind": kind, "ts": ts, "data": data}


@st.composite
def feed_only_events(draw):
    """Event dicts only the dict intake sees: no ts, no data, no session,
    an unknown kind or a ``generator.block``."""
    shape = draw(st.sampled_from(["no_ts", "no_data", "no_session",
                                  "unknown", "block"]))
    event = draw(honeypot_events())
    if shape == "no_ts":
        event["ts"] = None
    elif shape == "no_data":
        del event["data"]
    elif shape == "no_session":
        del event["data"]["session"]
    elif shape == "unknown":
        event["kind"] = "generator.heartbeat"
    else:
        event = {"kind": "generator.block", "ts": draw(st.one_of(
            st.none(), st.floats(0.0, 4 * 86_400.0))), "data": {
                "category": draw(st.sampled_from(["bg_uri", "no_cred", "?"])),
                "sessions": draw(st.integers(-1, 5))}}
    return event


def _fold(intake, events):
    """(state digest, open sessions, sketch.* counters) after ``intake``."""
    analytics = StreamingAnalytics()
    with use_metrics():
        intake(analytics, events)
        counters = get_metrics().counters
        pinned = tuple(int(counters.get(n, 0)) for n in SKETCH_COUNTERS)
    return (intake_state_digest(analytics), dict(analytics._sessions), pinned)


def _feed_each(analytics, events):
    for event in events:
        analytics.feed(event)


def _on_event_each(analytics, events):
    for event in events:
        analytics.on_event(HoneypotEvent(
            event_type=EventType(event["kind"]), timestamp=event["ts"],
            session_id=event["data"]["session"], honeypot_id="pot",
            data=event["data"]))


class TestSingleStepPath:
    """``feed_many``, ``feed`` and ``on_event`` share one step per kind."""

    @given(events=st.lists(st.one_of(honeypot_events(), feed_only_events()),
                           max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_feed_many_equals_feed_per_event(self, events):
        assert _fold(lambda a, e: a.feed_many(e), events) == \
            _fold(_feed_each, events)

    @given(events=st.lists(honeypot_events(), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_feed_many_equals_on_event(self, events):
        assert _fold(lambda a, e: a.feed_many(e), events) == \
            _fold(_on_event_each, events)

    def test_live_farm_events_equal_recorded_trace(self, demo_farm_events,
                                                   recorded_trace):
        assert len(demo_farm_events) == 61
        live = _fold(lambda a, e: [a.on_event(x) for x in e], demo_farm_events)
        replayed = _fold(lambda a, e: a.feed_many(e), recorded_trace)
        assert live == replayed
        assert live[2][:2] == (18, 61)

    @given(keys=st.lists(st.one_of(st.integers(0, 40), st.sampled_from(
        ["a", "b", "c", "d", "e", "f"])), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_cell_cache_overflow_keeps_sketches_exact(self, keys):
        ints = [k for k in keys if isinstance(k, int)]
        strs = [k for k in keys if isinstance(k, str)]
        with mock.patch.object(sketches, "CELL_CACHE_MAX", 4):
            hll = sketches.HyperLogLog(2023, "cache.hll", 6)
            for key in keys:
                hll.add(key)
                assert len(hll._cells) <= 4
        want_hll = sketches.HyperLogLog(2023, "cache.hll", 6)
        for part in (ints, strs):
            want_hll.add_many(part)
        assert hll == want_hll


@st.composite
def finished_sessions(draw):
    """``observe_session`` keywords of one finished session: few distinct
    clients, ASNs and hashes, so keys repeat within and across sessions."""
    return {
        "category": draw(st.sampled_from(CATEGORY_NAMES)),
        "day": draw(st.integers(0, 5)),
        "client_ip": draw(st.one_of(st.none(), st.integers(0, 12))),
        "asn": draw(st.one_of(st.none(), st.integers(-3, 6))),
        "hashes": draw(st.lists(st.sampled_from(["h0", "h1", "h2", "h3"]),
                                max_size=5)),
    }


#: The login and command events that give a session its category.
_CATEGORY_EVENTS = {
    "NO_CRED": [],
    "FAIL_LOG": ["honeypot.login.failed"],
    "NO_CMD": ["honeypot.login.success"],
    "CMD": ["honeypot.login.success", "honeypot.command.input"],
    "CMD_URI": ["honeypot.login.success", "honeypot.command.input"],
}


def _session_events(index, session):
    """The event dicts of one session, which close into ``session``."""
    def event(kind, **data):
        return {"kind": kind, "ts": session["day"] * 86_400.0 + index,
                "data": {"session": f"s{index}", **data}}

    category, hashes = session["category"], session["hashes"]
    file_kind = ("honeypot.session.file_download" if category == "CMD_URI"
                 else "honeypot.session.file_created")
    events = [event("honeypot.session.connect", src_ip=session["client_ip"],
                    src_asn=session["asn"])]
    events += [event(kind) for kind in _CATEGORY_EVENTS[category]]
    events += [event(file_kind, shasum=sha) for sha in hashes]
    if category == "CMD_URI" and not hashes:
        events.append(event(file_kind))
    events.append(event("honeypot.session.closed"))
    return events


def _counted(config, intake):
    """(analytics, sketch.* counters) after ``intake`` on a fresh registry."""
    analytics = StreamingAnalytics(config)
    with use_metrics():
        intake(analytics)
        counters = get_metrics().counters
        pinned = tuple(int(counters.get(n, 0)) for n in SKETCH_COUNTERS)
    return analytics, pinned


class TestBatchBoundaries:
    """Where the folds cut a session sequence changes no accumulator."""

    @given(sessions=st.lists(finished_sessions(), max_size=40),
           capacity=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_boundaries_do_not_matter(self, sessions, capacity, data):
        # A capacity of 1-4 makes the top-k tables evict, where the order
        # of adds decides the state.
        config = AnalyticsConfig(topk_capacity=capacity)
        events = [event for i, session in enumerate(sessions)
                  for event in _session_events(i, session)]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)),
                                         max_size=4)))
        fold_batch = data.draw(st.integers(1, 6))

        def one_at_a_time(analytics):
            for session in sessions:
                analytics.observe_session(**session)

        def split(analytics):
            with mock.patch.object(streaming_module, "FOLD_BATCH", fold_batch):
                for lo, hi in zip([0] + cuts, cuts + [len(events)]):
                    analytics.feed_many(events[lo:hi])

        observed, observed_counters = _counted(config, one_at_a_time)
        whole, whole_counters = _counted(
            config, lambda analytics: analytics.feed_many(events))
        cut, cut_counters = _counted(config, split)
        assert observed == whole
        assert observed_counters[0] == whole_counters[0] == len(sessions)
        assert (intake_state_digest(cut), cut_counters) == \
            (intake_state_digest(whole), whole_counters)

    @pytest.mark.parametrize("path", ["ingest_store", "feed_many"])
    def test_small_batches_keep_the_pinned_state(self, store, path):
        # 5198 sessions in 54 folds; top-k clients evict at this scale.
        with mock.patch.object(streaming_module, "FOLD_BATCH", 97):
            analytics, counters = _intake(store, path)
        assert analytics.topk_clients.error() > 0
        assert (intake_state_digest(analytics), counters) == \
            INTAKE_GOLDEN[("CONFIG", path)]


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

    def test_monitor_input_panels_equal_one_feed_many(self, store, tmp_path,
                                                      capsys):
        # Enough events for several feed_many chunks.
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(
            json.dumps(event) + "\n" for event in replay_store_events(store)))
        want = StreamingAnalytics()
        want.feed_many(json.loads(line)
                       for line in trace.read_text().splitlines())
        assert want.events_seen > 4 * FOLD_BATCH

        assert main(["monitor", "--input", str(trace)]) == 0
        assert want.render_panels() in capsys.readouterr().out

    def test_render_panels_deterministic(self, streaming):
        assert streaming.render_panels() == streaming.render_panels()
