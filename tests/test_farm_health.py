"""Tests for the live farm-health monitor (``repro.farm.health``).

Covers liveness tracking (down + recovery), EWMA drift baselines
(session-rate and category-mix z-score alarms), fresh-hash notifications
through ``core.notify.FreshHashNotice``, the bulk-path block intake, and
the end-to-end demo scenario behind ``python -m repro monitor``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.farm.health import (
    CATEGORIES,
    Alert,
    FarmHealthMonitor,
    HealthConfig,
    _Ewma,
)
from repro.obs import use_metrics


def _connect(ts, sensor, session, ip=0x01010101):
    return {"seq": 0, "wall": 0.0, "kind": "honeypot.session.connect",
            "trace_id": f"session:{session}", "ts": ts,
            "data": {"sensor": sensor, "session": session, "src_ip": ip}}


def _closed(ts, sensor, session):
    return {"seq": 0, "wall": 0.0, "kind": "honeypot.session.closed",
            "trace_id": f"session:{session}", "ts": ts,
            "data": {"sensor": sensor, "session": session,
                     "reason": "client-disconnect"}}


def _pots_down(monitor):
    """Sorted ids of the pots the monitor has marked down."""
    return sorted(p.honeypot_id for p in monitor.pots.values() if not p.up)


def _event(kind, ts, sensor, session, **data):
    return {"seq": 0, "wall": 0.0, "kind": kind,
            "trace_id": f"session:{session}", "ts": ts,
            "data": {"sensor": sensor, "session": session, **data}}


class TestEwma:
    def test_first_sample_sets_mean(self):
        e = _Ewma(0.3)
        e.update(10.0)
        assert e.mean == 10.0
        assert e.n == 1

    def test_zscore_undefined_until_variance(self):
        e = _Ewma(0.3)
        assert e.zscore(5.0) is None
        e.update(10.0)
        assert e.zscore(10.0) is None  # variance still zero

    def test_outlier_scores_high(self):
        e = _Ewma(0.3)
        for x in (10.0, 11.0, 9.0, 10.0, 11.0, 9.0):
            e.update(x)
        assert abs(e.zscore(10.0)) < 1.5
        assert e.zscore(100.0) > 10.0


class TestHealthConfig:
    @pytest.mark.parametrize("field", ["interval", "liveness_timeout"])
    @pytest.mark.parametrize("value", [0.0, -60.0, float("nan"),
                                       float("inf")])
    def test_rejects_non_positive_or_non_finite_spans(self, field, value):
        # interval=0 would spin _advance_to forever on the first
        # timestamp after the anchor.
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            HealthConfig(**{field: value})


class TestLiveness:
    def _monitor(self, **kw):
        kw.setdefault("liveness_timeout", 100.0)
        kw.setdefault("interval", 50.0)
        return FarmHealthMonitor(HealthConfig(**kw))

    def test_silent_pot_goes_down(self):
        with use_metrics():
            m = self._monitor()
            m.feed(_connect(0.0, "hp-a", "s1"))
            m.feed(_connect(10.0, "hp-b", "s2"))
            for t in range(1, 6):
                m.feed(_connect(10.0 + 50.0 * t, "hp-a", f"sa{t}"))
            m.advance(300.0)
        assert _pots_down(m) == ["hp-b"]
        downs = [a for a in m.alerts if a.kind == "liveness-down"]
        assert len(downs) == 1 and downs[0].honeypot_id == "hp-b"

    def test_watched_but_never_seen_pot_goes_down(self):
        with use_metrics():
            m = self._monitor()
            m.watch(["hp-ghost"])
            m.feed(_connect(0.0, "hp-a", "s1"))
            m.advance(500.0)
        assert "hp-ghost" in _pots_down(m)

    def test_recovery_raises_and_marks_up(self):
        with use_metrics():
            m = self._monitor()
            m.feed(_connect(0.0, "hp-a", "s1"))
            m.feed(_connect(0.0, "hp-b", "s2"))
            m.feed(_connect(150.0, "hp-a", "s3"))
            m.advance(200.0)
            assert _pots_down(m) == ["hp-b"]
            m.feed(_connect(250.0, "hp-b", "s4"))
        assert _pots_down(m) == []
        assert any(a.kind == "liveness-recovered" and a.honeypot_id == "hp-b"
                   for a in m.alerts)

    def test_status_labels(self):
        with use_metrics():
            m = self._monitor()
            m.watch(["hp-quiet"])
            m.feed(_connect(0.0, "hp-a", "s1"))
            pot = m.pots["hp-a"]
            assert pot.status(10.0, 100.0) == "OK"
            assert pot.status(80.0, 100.0) == "QUIET"
            assert m.pots["hp-quiet"].status(10.0, 100.0) == "SILENT"


class TestRateDrift:
    def test_burst_after_warmup_alarms(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(
                interval=10.0, warmup_intervals=3, z_threshold=3.0,
                liveness_timeout=1e9))
            n = 0
            # Steady 2-3 sessions per 10s interval for 20 intervals.
            for i in range(20):
                for k in range(2 + (i % 2)):
                    n += 1
                    m.feed(_connect(i * 10.0 + k * 3.0, "hp-a", f"s{n}"))
            # Burst: 40 connects inside one interval.
            for k in range(40):
                n += 1
                m.feed(_connect(200.0 + k * 0.2, "hp-a", f"s{n}"))
            m.advance(220.0)
        alerts = [a for a in m.alerts if a.kind == "rate-drift"]
        assert alerts, "burst did not raise a rate-drift alert"
        assert alerts[-1].data["z"] > 3.0

    def test_no_alarm_during_warmup(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(
                interval=10.0, warmup_intervals=50, liveness_timeout=1e9))
            n = 0
            for i in range(10):
                for k in range(2 + 20 * (i == 8)):  # burst in interval 8
                    n += 1
                    m.feed(_connect(i * 10.0 + k * 0.3, "hp-a", f"s{n}"))
            m.advance(120.0)
        assert not [a for a in m.alerts if a.kind == "rate-drift"]

    def test_interval_histogram_is_capped(self):
        with use_metrics() as metrics:
            m = FarmHealthMonitor(HealthConfig(
                interval=10.0, histogram_cap=8, liveness_timeout=1e9))
            for i in range(40):
                m.feed(_connect(i * 10.0, "hp-a", f"s{i}"))
            m.advance(500.0)
            hist = metrics.histograms["farm.sessions_per_interval"]
        assert hist.cap == 8
        assert len(hist.values) <= 8
        assert hist.count >= 40  # exact count survives the reservoir


class TestMixDrift:
    def test_category_flip_alarms(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(
                interval=10.0, warmup_intervals=3, z_threshold=3.0,
                liveness_timeout=1e9))
            n = 0
            # 15 intervals of pure NO_CRED traffic (connect+close, no auth),
            # with mild rate variation so variance is nonzero.
            for i in range(15):
                for k in range(3 + (i % 2)):
                    n += 1
                    sid = f"s{n}"
                    t = i * 10.0 + k * 2.0
                    m.feed(_connect(t, "hp-a", sid))
                    m.feed(_closed(t + 1.0, "hp-a", sid))
            # Then an interval of successful-login CMD sessions.
            for k in range(4):
                n += 1
                sid = f"s{n}"
                t = 150.0 + k * 2.0
                m.feed(_connect(t, "hp-a", sid))
                m.feed(_event("honeypot.login.success", t + 0.5, "hp-a", sid,
                              username="root", password="x"))
                m.feed(_event("honeypot.command.input", t + 1.0, "hp-a", sid,
                              input="uname"))
                m.feed(_closed(t + 2.0, "hp-a", sid))
            m.advance(170.0)
        mix = [a for a in m.alerts if a.kind == "mix-drift"]
        assert {a.data["category"] for a in mix} >= {"CMD"}

    def test_session_categorisation_matches_taxonomy(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(interval=1e9,
                                               liveness_timeout=1e9))
            # NO_CRED: connect + close.
            m.feed(_connect(0.0, "hp", "a"))
            m.feed(_closed(1.0, "hp", "a"))
            # FAIL_LOG: failed attempt only.
            m.feed(_connect(2.0, "hp", "b"))
            m.feed(_event("honeypot.login.failed", 3.0, "hp", "b"))
            m.feed(_closed(4.0, "hp", "b"))
            # NO_CMD: success, no commands.
            m.feed(_connect(5.0, "hp", "c"))
            m.feed(_event("honeypot.login.success", 6.0, "hp", "c"))
            m.feed(_closed(7.0, "hp", "c"))
            # CMD_URI: success + command + download.
            m.feed(_connect(8.0, "hp", "d"))
            m.feed(_event("honeypot.login.success", 9.0, "hp", "d"))
            m.feed(_event("honeypot.command.input", 10.0, "hp", "d",
                          input="wget http://x/y"))
            m.feed(_event("honeypot.session.file_download", 11.0, "hp", "d",
                          url="http://x/y", shasum="ab" * 32))
            m.feed(_closed(12.0, "hp", "d"))
            assert m._interval_mix["NO_CRED"] == 1
            assert m._interval_mix["FAIL_LOG"] == 1
            assert m._interval_mix["NO_CMD"] == 1
            assert m._interval_mix["CMD_URI"] == 1
            assert m._interval_mix["CMD"] == 0


class TestFreshHashes:
    def test_first_sighting_notifies_second_does_not(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9))
            sha = "cd" * 32
            m.feed(_connect(0.0, "hp-a", "s1", ip=0x0A0B0C0D))
            m.feed(_event("honeypot.session.file_download", 1.0, "hp-a", "s1",
                          url="http://evil/x.sh", shasum=sha))
            m.feed(_event("honeypot.session.file_download", 2.0, "hp-a", "s1",
                          url="http://evil/x.sh", shasum=sha))
        assert len(m.notices) == 1
        notice = m.notices[0]
        assert notice.sha256 == sha
        assert notice.honeypot_id == "hp-a"
        assert notice.client_ip == 0x0A0B0C0D
        assert notice.uri == "http://evil/x.sh"
        assert notice.severity == "high"
        rendered = notice.render()
        assert sha in rendered and "10.11.12.13" in rendered
        assert [a.kind for a in m.alerts] == ["fresh-hash"]

    def test_known_hashes_never_alert(self):
        sha = "ef" * 32
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9),
                                  known_hashes=[sha])
            m.feed(_event("honeypot.session.file_created", 1.0, "hp-a", "s1",
                          path="/tmp/x", shasum=sha))
        assert m.notices == []
        assert m.pots["hp-a"].hashes == 1  # still counted per pot

    def test_tagged_hash_escalates_severity(self):
        class FakeTag:
            value = "mirai"

        class FakeIntel:
            def tag_of(self, sha):
                return FakeTag()

        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9),
                                  intel=FakeIntel())
            m.feed(_event("honeypot.session.file_download", 1.0, "hp-a", "s1",
                          url="http://evil/m.arm", shasum="aa" * 32))
        assert m.notices[0].tag == "mirai"
        assert m.notices[0].severity == "critical"


class TestBulkBlocks:
    def test_generator_blocks_count_into_rate_and_mix(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(interval=86400.0,
                                               liveness_timeout=1e18))
            m.feed({"seq": 0, "wall": 0.0, "kind": "generator.block",
                    "trace_id": "no_cred.d0", "ts": 0.0,
                    "data": {"category": "no_cred", "day": 0,
                             "sessions": 100}})
            m.feed({"seq": 1, "wall": 0.0, "kind": "generator.block",
                    "trace_id": "emit.c1.d0", "ts": 0.0,
                    "data": {"category": "emit.c1", "campaign": "c1",
                             "session_kind": "CMD_URI", "day": 0,
                             "sessions": 25}})
        assert m.sessions_seen == 125
        assert m._interval_mix["NO_CRED"] == 100
        assert m._interval_mix["CMD_URI"] == 25


class TestHoneypotEventIntake:
    def test_on_event_consumes_live_objects(self):
        from repro.honeypot.events import EventType, HoneypotEvent

        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9))
            m.on_event(HoneypotEvent(
                event_type=EventType.SESSION_CONNECT, timestamp=1.0,
                session_id="s1", honeypot_id="hp-x",
                data={"src_ip": 1, "src_port": 2, "dst_port": 22,
                      "protocol": "ssh"}))
            m.on_event(HoneypotEvent(
                event_type=EventType.SESSION_CLOSED, timestamp=2.0,
                session_id="s1", honeypot_id="hp-x",
                data={"reason": "client-disconnect", "duration": 1.0}))
        assert m.pots["hp-x"].sessions == 1
        assert m.pots["hp-x"].live == 0
        assert m.sessions_seen == 1

    def test_live_farm_event_tap_feeds_monitor(self, demo_farm_events):
        # Shared recorded LiveFarm run (see conftest): 18 sessions over
        # 3 pots, with intrusion wgets dropping never-seen hashes.
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9))
            for event in demo_farm_events:
                m.on_event(event)
        assert m.sessions_seen == 18
        assert len(m.pots) == 3
        assert m.notices, "intrusion downloads should raise fresh-hash"

    def test_recorded_trace_feed_matches_event_objects(self, demo_farm_events,
                                                       recorded_trace):
        # Feeding the dict-shaped flight-recorder form of the same run
        # must land in the same monitor state as the live objects.
        with use_metrics():
            a = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9))
            for event in demo_farm_events:
                a.on_event(event)
            b = FarmHealthMonitor(HealthConfig(liveness_timeout=1e9))
            for event in recorded_trace:
                b.feed(event)
        assert len(recorded_trace) == len(demo_farm_events)
        assert b.sessions_seen == a.sessions_seen
        assert b.events_seen == a.events_seen
        assert sorted(b.pots) == sorted(a.pots)
        assert {n.sha256 for n in b.notices} == {n.sha256 for n in a.notices}


class TestRenderTable:
    def test_table_mentions_pots_and_alerts(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=100.0,
                                               interval=50.0))
            m.feed(_connect(0.0, "hp-a", "s1"))
            m.feed(_connect(0.0, "hp-b", "s2"))
            m.feed(_connect(300.0, "hp-a", "s3"))
            m.advance(300.0)
            text = m.render_table()
        assert "hp-a" in text and "hp-b" in text
        assert "DOWN" in text
        assert "LIVENESS-DOWN" in text
        assert "2 pots" in text
        assert "3 sessions" in text

    def test_overflow_keeps_flagged_rows(self):
        with use_metrics():
            m = FarmHealthMonitor(HealthConfig(liveness_timeout=100.0,
                                               interval=50.0))
            for i in range(10):
                m.feed(_connect(0.0, f"hp-{i:02d}", f"s{i}"))
            m.feed(_connect(300.0, "hp-00", "slate"))
            m.advance(300.0)
            text = m.render_table(max_pots=3)
        # Every downed pot survives the cut even with max_pots=3.
        for i in range(1, 10):
            assert f"hp-{i:02d}" in text

    def test_alert_render_shape(self):
        alert = Alert(kind="rate-drift", time=120.0, honeypot_id=None,
                      message="spike", data={"z": 9.0})
        text = alert.render()
        assert "RATE-DRIFT" in text and "120.0s" in text


class TestMonitorCli:
    def test_demo_reports_fresh_hash_alert(self, capsys):
        from repro.__main__ import main

        with use_metrics():
            status = main(["monitor", "--duration", "1500",
                           "--pots", "4", "--seed", "7"])
        out = capsys.readouterr().out
        assert status == 0
        assert "FRESH-HASH" in out
        assert "Fresh file hash observed" in out
        assert "farm health" in out

    def test_tail_validates_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.obs import write_trace_jsonl
        from repro.obs.trace import Tracer

        t = Tracer()
        t.emit("honeypot.session.connect", trace_id="session:s1",
               sim_time=1.0, sensor="hp-a", session="s1", src_ip=5)
        t.emit("honeypot.session.closed", trace_id="session:s1",
               sim_time=2.0, sensor="hp-a", session="s1")
        path = tmp_path / "t.jsonl"
        write_trace_jsonl(t.to_list(), str(path))
        with use_metrics():
            status = main(["monitor", "--input", str(path), "--validate"])
        captured = capsys.readouterr()
        assert status == 0
        assert "hp-a" in captured.out
        assert "trace valid: 2 events" in captured.err

    def test_tail_rejects_broken_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"wall": 0.0, "kind": "x", "seq": 5}\n'
                        '{"wall": 0.0, "kind": "y", "seq": 5}\n')
        with use_metrics():
            status = main(["monitor", "--input", str(path), "--validate"])
        assert status == 1
        assert "INVALID" in capsys.readouterr().err

    def test_prometheus_export_from_monitor(self, tmp_path, capsys):
        from repro.__main__ import main

        prom = tmp_path / "metrics.prom"
        with use_metrics():
            status = main(["monitor", "--duration", "600", "--pots", "2",
                           "--prometheus", str(prom)])
        assert status == 0
        text = prom.read_text()
        assert "repro_farm_sessions_per_interval" in text
        capsys.readouterr()


def test_categories_cover_the_paper_taxonomy():
    assert CATEGORIES == ("NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD_URI")


def monitor_digest(monitor, metrics):
    """sha256 over the monitor's alerts, notices, table, counts and the
    ``farm.*`` histograms of ``metrics``."""
    h = hashlib.sha256()
    for alert in monitor.alerts:
        h.update(f"{alert.kind}|{alert.time!r}|{alert.honeypot_id}|"
                 f"{alert.message}\n".encode())
    for n in monitor.notices:
        # Not the session id: it counts every session the process opened.
        h.update(f"{n.sha256}|{n.first_seen!r}|{n.honeypot_id}|{n.client_ip}|"
                 f"{n.uri}|{n.tag}\n".encode())
    h.update(monitor.render_table().encode())
    h.update(f"|{monitor.sessions_seen}|{monitor.events_seen}|".encode())
    for name in sorted(metrics.histograms):
        if name.startswith("farm."):
            hist = metrics.histograms[name]
            h.update(f"{name}|{hist.count}|{hist.total!r}|{hist.max!r}|"
                     f"{hist.values!r}\n".encode())
    return h.hexdigest()


#: input -> (digest, (sessions_seen, events_seen, alerts, notices)).
#: Pinned from the monitor before it shared the session lifecycle with
#: the streaming analytics; any intake rewrite must reproduce it.
MONITOR_GOLDEN = {
    "demo/on_event": (
        "7db7e9e239c73c9fd1aca78ba2bbc91f21004ea0f6b7bc809192e0c8e4650b16",
        (246, 577, 10, 2)),
    "demo/feed": (
        "3f691ff57af87905e967a913d8cecf5def62b1e77b2321463d340d23a009c218",
        (246, 1396, 16, 2)),
    "replay_store_events": (
        "b0bae0143e9eeb61e7d36b9c5fc92233b809346e5f84c76d760d606cc44a11de",
        (5175, 23696, 1000, 342)),
    "pool_trace": (
        "89ca8dd6f896426a7e35202a66e4071598c62eb024577b3daa8c39b41233f627",
        (5175, 2140, 27, 0)),
}


def _pinned(monitor, metrics):
    return (monitor_digest(monitor, metrics),
            (monitor.sessions_seen, monitor.events_seen,
             len(monitor.alerts), len(monitor.notices)))


class TestPinnedMonitorState:
    """Whole monitor state pinned over a live, a replayed and a bulk stream."""

    @pytest.fixture(scope="class")
    def demo(self):
        """``repro monitor``'s demo run: its monitor, metrics and trace."""
        import argparse
        import contextlib
        import io

        from repro.__main__ import _monitor_demo
        from repro.obs.trace import Tracer, use_tracer

        monitor = FarmHealthMonitor()
        tracer = Tracer()
        with use_metrics() as metrics, use_tracer(tracer), \
                contextlib.redirect_stdout(io.StringIO()):
            _monitor_demo(argparse.Namespace(seed=7, pots=6,
                                             duration=3600.0), monitor)
        return monitor, metrics, tracer.to_list()

    def test_demo_on_event_pinned(self, demo):
        monitor, metrics, _ = demo
        assert _pinned(monitor, metrics) == MONITOR_GOLDEN["demo/on_event"]

    def test_demo_feed_pinned(self, demo):
        live, _, events = demo
        with use_metrics() as metrics:
            monitor = FarmHealthMonitor()
            monitor.watch(sorted(live.pots))
            for event in events:
                monitor.feed(event)
            monitor.advance(3600.0)
        assert _pinned(monitor, metrics) == MONITOR_GOLDEN["demo/feed"]

    def test_replayed_store_pinned(self):
        import repro
        from repro.analytics import replay_store_events

        store = repro.generate(repro.ScenarioConfig(
            scale=1 / 80000, seed=7, hash_scale=0.004)).store
        with use_metrics() as metrics:
            monitor = FarmHealthMonitor(HealthConfig(interval=86400.0))
            for event in replay_store_events(store):
                monitor.feed(event)
        assert _pinned(monitor, metrics) == \
            MONITOR_GOLDEN["replay_store_events"]

    def test_pool_trace_with_blocks_pinned(self):
        import repro
        from repro.obs.trace import Tracer, strip_volatile_events, use_tracer
        from repro.sched.scheduler import generate_scheduled

        tracer = Tracer()
        with use_metrics(), use_tracer(tracer):
            generate_scheduled(repro.ScenarioConfig(
                scale=1 / 80000, seed=7, hash_scale=0.004),
                backend="pool", workers=2)
        events = strip_volatile_events(tracer.to_list())
        assert any(e["kind"] == "generator.block" for e in events)
        with use_metrics() as metrics:
            monitor = FarmHealthMonitor(HealthConfig(interval=86400.0))
            for event in events:
                monitor.feed(event)
        assert _pinned(monitor, metrics) == MONITOR_GOLDEN["pool_trace"]


class _PerInterval(FarmHealthMonitor):
    """The monitor closing every empty interval one at a time."""

    def _close_empty(self, now):
        self._close_interval(self._interval_start + self.config.interval)


def _gappy_stream(t0):
    """Busy stretches on three pots, a burst, and idle gaps of days."""
    events, n = [], 0

    def session(ts, sensor):
        nonlocal n
        n += 1
        events.append(_connect(ts, sensor, f"g{n}"))
        events.append(_closed(ts + 1.0, sensor, f"g{n}"))

    for i in range(60):
        for sensor in ("a", "b", "c"):
            session(t0 + 10.0 * i, sensor)
    for i in range(40):
        session(t0 + 700.0 + 25.0 * i, "a" if i % 2 else "b")
    for k in range(30):  # a burst after a two-day gap: rate drift
        session(t0 + 200_000.0 + k, "a")
    for i in range(20):
        session(t0 + 200_100.0 + 60.0 * i, "c")
    session(t0 + 900_000.0, "b")
    return events


class TestEmptyIntervalRuns:
    """Runs of empty intervals close in bulk, with the same outcome as
    one close per interval."""

    @pytest.mark.parametrize("t0, interval", [
        (0.0, 60.0), (0.5, 60.0), (3.0, 7.3), (0.0, 1.0)])
    def test_same_alerts_counts_and_histograms(self, t0, interval):
        results = []
        for cls in (_PerInterval, FarmHealthMonitor):
            with use_metrics() as metrics:
                monitor = cls(HealthConfig(interval=interval,
                                           histogram_cap=10 ** 7))
                monitor.watch(["a", "b", "c", "d"])
                for event in _gappy_stream(t0):
                    monitor.feed(event)
                monitor.advance(t0 + 1_000_000.0)
            hist = metrics.histograms["farm.sessions_per_interval"]
            results.append((
                [(a.kind, a.time, a.honeypot_id, a.message)
                 for a in monitor.alerts],
                monitor.render_table(), monitor._intervals_closed,
                monitor._interval_start, monitor._rate.n,
                hist.count, hist.total, hist.max, hist.values))
        assert results[0] == results[1]
        kinds = {alert[0] for alert in results[1][0]}
        assert {"liveness-down", "liveness-recovered", "rate-drift"} <= kinds

    def test_a_long_gap_costs_a_few_closes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            FarmHealthMonitor, "_close_interval",
            lambda self, end, close=FarmHealthMonitor._close_interval:
            calls.append(end) or close(self, end))
        with use_metrics() as metrics:
            monitor = FarmHealthMonitor(HealthConfig(interval=1.0))
            monitor.watch(["a"])
            monitor.feed(_connect(0.0, "a", "s1"))
            monitor.advance(10_000_000.0)
        assert monitor._intervals_closed == 10_000_000
        assert monitor._interval_start == 10_000_000.0
        assert len(calls) <= 1
        hist = metrics.histograms["farm.sessions_per_interval"]
        assert (hist.count, hist.total) == (10_000_000, 1.0)
        assert len(hist.values) == HealthConfig().histogram_cap
        assert _pots_down(monitor) == ["a"]
        assert monitor.alerts[-1].time == 901.0


def test_monitor_demo_prints_the_same_twice_in_one_process(capsys):
    """Sessions are numbered per honeypot, not per process."""
    import argparse

    from repro.__main__ import _monitor_demo
    from repro.analytics import StreamingAnalytics

    outputs = []
    for _ in range(2):
        with use_metrics():
            _monitor_demo(argparse.Namespace(seed=7, pots=6, duration=3600.0),
                          FarmHealthMonitor(), StreamingAnalytics())
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "(session hp-001-s" in outputs[0]
