"""Unit tests for per-task resource telemetry (``repro.obs.resources``)."""

from __future__ import annotations

import gc

from repro.obs.resources import (
    HEARTBEAT_FIELDS,
    TELEMETRY_FIELDS,
    TELEMETRY_VERSION,
    ResourceSampler,
    current_rss_kb,
    peak_rss_kb,
    worker_heartbeat,
)


class TestRssProbes:
    def test_peak_rss_positive(self):
        assert peak_rss_kb() > 0

    def test_current_rss_is_same_order_as_peak(self):
        current = current_rss_kb()
        assert current > 0
        # statm RSS and ru_maxrss use different kernel accounting; they
        # only agree to within a few percent, so just pin the order of
        # magnitude.
        assert current < peak_rss_kb() * 2


class TestResourceSampler:
    def test_reports_every_declared_field(self):
        with ResourceSampler() as sampler:
            sum(range(10_000))
        out = sampler.to_dict()
        assert out["telemetry_version"] == TELEMETRY_VERSION
        for field in TELEMETRY_FIELDS:
            assert field in out, field
        assert out["wall_seconds"] > 0.0
        assert out["cpu_seconds"] == \
            out["cpu_user_seconds"] + out["cpu_system_seconds"]
        assert out["max_rss_kb"] > 0

    def test_counts_gc_collections_inside_window(self):
        with ResourceSampler() as sampler:
            for _ in range(3):
                gc.collect()
        assert sampler.gc_collections >= 3
        assert sampler.gc_pause_seconds >= 0.0

    def test_gc_outside_window_not_counted(self):
        with ResourceSampler() as sampler:
            pass
        inside = sampler.gc_collections
        gc.collect()
        assert sampler.gc_collections == inside

    def test_gc_callback_removed_on_exit(self):
        before = len(gc.callbacks)
        with ResourceSampler():
            assert len(gc.callbacks) == before + 1
        assert len(gc.callbacks) == before

    def test_callback_removed_even_on_error(self):
        before = len(gc.callbacks)
        try:
            with ResourceSampler():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(gc.callbacks) == before

    def test_samplers_nest(self):
        with ResourceSampler() as outer:
            with ResourceSampler() as inner:
                gc.collect()
            gc.collect()
        assert inner.gc_collections >= 1
        assert outer.gc_collections >= 2

    def test_tracemalloc_absent_by_default(self):
        with ResourceSampler() as sampler:
            pass
        assert "tracemalloc_peak_kb" not in sampler.to_dict()

    def test_payload_is_json_ready(self):
        import json

        with ResourceSampler() as sampler:
            pass
        payload = sampler.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestWorkerHeartbeat:
    def test_payload_has_every_declared_field(self):
        beat = worker_heartbeat("pool-0", beat=3, state="run",
                               last_index=7, tasks_done=3, sessions_done=99)
        assert set(beat) == set(HEARTBEAT_FIELDS)
        assert beat["worker"] == "pool-0"
        assert beat["beat"] == 3
        assert beat["rss_kb"] > 0

