"""Unit tests for the observability layer (``repro.obs``).

Covers the registry instruments (counters, gauges, histograms, timers,
spans), serialisation round-trips, merge semantics, and the multiprocess
contract: shard metrics recorded by workers must merge to the same
session/draw totals no matter how many workers emitted them.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Histogram,
    Metrics,
    get_metrics,
    inc,
    render,
    use_metrics,
)


class TestCounters:
    def test_inc_accumulates(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5
        assert m.counter("never-touched") == 0

    def test_module_level_inc_targets_current_registry(self):
        with use_metrics() as m:
            inc("hot", 3)
            assert m.counter("hot") == 3
        assert get_metrics().counter("hot") == 0


class TestGauges:
    def test_set_overwrites(self):
        m = Metrics()
        m.gauge_set("g", 5)
        m.gauge_set("g", 2)
        assert m.gauges["g"] == 2.0

    def test_max_keeps_high_water_mark(self):
        m = Metrics()
        m.gauge_max("depth", 3)
        m.gauge_max("depth", 9)
        m.gauge_max("depth", 4)
        assert m.gauges["depth"] == 9.0


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        for v in range(1, 11):
            h.observe(v)
        assert h.count == 10
        assert h.total == 55.0
        assert h.mean == 5.5
        assert h.max == 10.0

    def test_interpolated_percentiles(self):
        h = Histogram(list(range(1, 11)))  # 1..10
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == pytest.approx(5.5)
        assert h.percentile(90) == pytest.approx(9.1)
        assert h.percentile(100) == 10.0

    def test_empty_histogram_is_all_zero(self):
        h = Histogram()
        assert (h.count, h.total, h.mean, h.max, h.percentile(50)) == (
            0, 0.0, 0.0, 0.0, 0.0)

    def test_merge_is_observation_concat(self):
        a, b = Histogram([1.0, 3.0]), Histogram([2.0])
        a.merge(b)
        assert sorted(a.values) == [1.0, 2.0, 3.0]

    def test_timer_observes_seconds(self):
        m = Metrics()
        with m.timer("t"):
            pass
        with m.timer("t"):
            pass
        h = m.histograms["t"]
        assert h.count == 2
        assert all(v >= 0 for v in h.values)


class TestHistogramReservoirCap:
    """The optional cap: bounded samples, exact scalars, estimated tails."""

    def test_uncapped_default_keeps_everything(self):
        h = Histogram()
        for v in range(10_000):
            h.observe(v)
        assert len(h.values) == 10_000
        assert h.cap is None

    def test_cap_bounds_the_sample_list(self):
        h = Histogram(cap=64)
        for v in range(10_000):
            h.observe(v)
        assert len(h.values) == 64

    def test_scalars_stay_exact_under_cap(self):
        h = Histogram(cap=16)
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.count == 1000
        assert h.total == 500500.0
        assert h.mean == 500.5
        assert h.max == 1000.0

    def test_reservoir_is_representative(self):
        # Uniform stream 0..9999: the reservoir's median should estimate
        # the true median within a loose tolerance.
        h = Histogram(cap=512)
        for v in range(10_000):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(5000, rel=0.25)

    def test_reservoir_is_deterministic(self):
        def build():
            h = Histogram(cap=32)
            for v in range(1000):
                h.observe(float(v))
            return h.values

        assert build() == build()

    def test_below_cap_behaves_exactly(self):
        exact, capped = Histogram(), Histogram(cap=100)
        for v in (3.0, 1.0, 2.0):
            exact.observe(v)
            capped.observe(v)
        assert capped.values == exact.values
        assert capped.percentile(50) == exact.percentile(50)

    def test_uncapped_payload_is_bare_list(self):
        h = Histogram([1.0, 2.0])
        assert h.to_payload() == [1.0, 2.0]

    def test_capped_payload_carries_exact_scalars(self):
        h = Histogram(cap=4)
        for v in range(1, 11):
            h.observe(float(v))
        payload = h.to_payload()
        assert payload["cap"] == 4
        assert payload["count"] == 10
        assert payload["total"] == 55.0
        assert payload["max"] == 10.0
        assert len(payload["values"]) == 4

    def test_merge_capped_into_uncapped_adopts_cap(self):
        capped = Histogram(cap=8)
        for v in range(100):
            capped.observe(float(v))
        plain = Histogram([1000.0, 2000.0])
        plain.merge(capped)
        assert plain.cap == 8
        assert len(plain.values) <= 8
        assert plain.count == 102
        assert plain.total == pytest.approx(sum(range(100)) + 3000.0)
        assert plain.max == 2000.0

    def test_merge_list_into_capped_keeps_exact_scalars(self):
        h = Histogram(cap=4)
        for v in range(1, 6):
            h.observe(float(v))
        h.merge_payload([10.0, 20.0])
        assert h.count == 7
        assert h.total == 45.0
        assert h.max == 20.0
        assert len(h.values) <= 4

    def test_registry_histogram_accessor_applies_cap_once(self):
        m = Metrics()
        first = m.histogram("h", cap=8)
        second = m.histogram("h", cap=999)  # existing instrument wins
        assert first is second
        assert first.cap == 8

    def test_uncapped_serialisation_unchanged_by_the_feature(self):
        # The uncapped payload stays a bare list: dict round-trips written
        # by earlier versions of the registry still load.
        m = Metrics()
        m.observe("h", 1.0)
        m.observe("h", 2.5)
        assert m.to_dict()["histograms"]["h"] == [1.0, 2.5]
        clone = Metrics.from_dict(m.to_dict())
        assert clone.histograms["h"].values == [1.0, 2.5]
        assert clone.histograms["h"].cap is None


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        m = Metrics()
        with m.span("outer"):
            with m.span("inner"):
                pass
            with m.span("inner"):
                pass
        assert set(m.spans) == {"outer", "outer/inner"}
        assert m.spans["outer"]["count"] == 1
        assert m.spans["outer/inner"]["count"] == 2
        assert m.spans["outer"]["wall"] >= m.spans["outer/inner"]["wall"]

    def test_exception_still_records_and_pops(self):
        m = Metrics()
        with pytest.raises(RuntimeError):
            with m.span("failing"):
                raise RuntimeError("boom")
        assert m.spans["failing"]["count"] == 1
        with m.span("after"):
            pass
        assert "after" in m.spans  # not "failing/after": stack unwound


class TestSerialisation:
    def _populated(self) -> Metrics:
        m = Metrics()
        m.inc("c", 7)
        m.gauge_set("g", 2.5)
        m.observe("h", 1.0)
        m.observe("h", 3.0)
        with m.span("s"):
            with m.span("t"):
                pass
        return m

    def test_round_trip(self):
        m = self._populated()
        clone = Metrics.from_dict(m.to_dict())
        assert clone.to_dict() == m.to_dict()

    def test_dict_form_is_json_serialisable(self):
        m = self._populated()
        restored = json.loads(json.dumps(m.to_dict()))
        assert Metrics.from_dict(restored).to_dict() == m.to_dict()

    def test_render_mentions_every_section(self):
        text = render(self._populated())
        for fragment in ("stage timings", "counters", "gauges",
                         "histograms", "s", "  t", "c", "g", "h"):
            assert fragment in text


class TestMerge:
    def test_counters_sum_gauges_max_histograms_concat(self):
        a, b = Metrics(), Metrics()
        a.inc("c", 2)
        b.inc("c", 3)
        b.inc("only-b", 1)
        a.gauge_max("g", 5)
        b.gauge_max("g", 4)
        a.observe("h", 1.0)
        b.observe("h", 2.0)
        a.merge(b)
        assert a.counter("c") == 5
        assert a.counter("only-b") == 1
        assert a.gauges["g"] == 5.0
        assert sorted(a.histograms["h"].values) == [1.0, 2.0]

    def test_span_cells_sum(self):
        a, b = Metrics(), Metrics()
        with a.span("work"):
            pass
        with b.span("work"):
            pass
        a.merge(b)
        assert a.spans["work"]["count"] == 2

    def test_span_prefix_reroots_worker_paths(self):
        parent, worker = Metrics(), Metrics()
        with worker.span("shard"):
            with worker.span("campaign"):
                pass
        parent.merge(worker.to_dict(), span_prefix="generate/emit")
        assert set(parent.spans) == {
            "generate/emit/shard", "generate/emit/shard/campaign"}

    def test_rerooted_paths_collide_with_real_spans_by_summing(self):
        # The parent really entered generate/emit; the worker's re-rooted
        # "emit" tree lands on the same paths and must sum, not replace.
        parent, worker = Metrics(), Metrics()
        with parent.span("generate"):
            with parent.span("emit"):
                pass
        with worker.span("emit"):
            pass
        parent.merge(worker.to_dict(), span_prefix="generate")
        assert parent.spans["generate/emit"]["count"] == 2
        assert parent.spans["generate"]["count"] == 1

    def test_implicit_parent_not_materialised_by_merge(self):
        # Re-rooting creates deep paths whose ancestors were never entered;
        # merge must not invent span cells for them (the renderer
        # synthesises implicit nodes at display time instead).
        parent, worker = Metrics(), Metrics()
        with worker.span("shard"):
            with worker.span("campaign"):
                pass
        parent.merge(worker.to_dict(), span_prefix="generate/emit")
        assert "generate" not in parent.spans
        assert "generate/emit" not in parent.spans
        assert parent.spans["generate/emit/shard"]["count"] == 1

    def test_real_span_entered_after_implicit_children_merged(self):
        # Order of arrival must not matter: worker paths first, then the
        # parent genuinely enters the ancestor path.
        parent, worker = Metrics(), Metrics()
        with worker.span("shard"):
            pass
        parent.merge(worker.to_dict(), span_prefix="generate/emit")
        with parent.span("generate"):
            with parent.span("emit"):
                pass
        assert parent.spans["generate/emit"]["count"] == 1
        assert parent.spans["generate/emit/shard"]["count"] == 1

    def test_render_does_not_double_count_real_parents(self):
        from repro.obs.export import _span_tree

        parent, worker = Metrics(), Metrics()
        with parent.span("generate"):
            with parent.span("emit"):
                pass
        real_wall = parent.spans["generate"]["wall"]
        with worker.span("shard"):
            pass
        parent.merge(worker.to_dict(), span_prefix="generate/emit")
        nodes, children, roots = _span_tree(parent.spans)
        # "generate" was really entered: its wall stays measured, not
        # re-aggregated from children.
        assert nodes["generate"]["wall"] == real_wall
        # The implicit "generate/emit/shard" parent chain renders under it.
        assert "generate/emit/shard" in children["generate/emit"]

    def test_render_aggregates_implicit_parents_once(self):
        from repro.obs.export import _span_tree

        parent, worker = Metrics(), Metrics()
        with worker.span("shard"):
            pass
        worker.spans["shard"]["wall"] = 2.0
        worker2 = Metrics()
        with worker2.span("shard"):
            pass
        worker2.spans["shard"]["wall"] = 3.0
        parent.merge(worker.to_dict(), span_prefix="generate/emit")
        parent.merge(worker2.to_dict(), span_prefix="generate/emit")
        nodes, _children, _roots = _span_tree(parent.spans)
        # Implicit chain generate -> emit -> shard: each level shows the
        # 5.0s total exactly once.
        assert nodes["generate/emit/shard"]["wall"] == pytest.approx(5.0)
        assert nodes["generate/emit"]["wall"] == pytest.approx(5.0)
        assert nodes["generate"]["wall"] == pytest.approx(5.0)

    def test_merge_accepts_dict_or_metrics(self):
        a, b = Metrics(), Metrics()
        b.inc("x")
        a.merge(b)
        a.merge(b.to_dict())
        assert a.counter("x") == 2

    def test_delta_since_reports_only_movement(self):
        m = Metrics()
        m.inc("before", 1)
        with m.span("old"):
            pass
        snapshot = m.to_dict()
        m.inc("before", 2)
        m.inc("fresh", 1)
        with m.span("new"):
            pass
        delta = m.delta_since(snapshot)
        assert delta["counters"] == {"before": 2, "fresh": 1}
        assert set(delta["spans"]) == {"new"}
        assert delta["spans"]["new"]["count"] == 1


class TestUseMetrics:
    def test_swaps_and_restores(self):
        outer = get_metrics()
        with use_metrics() as inner:
            assert get_metrics() is inner
            assert inner is not outer
        assert get_metrics() is outer

    def test_restores_on_exception(self):
        outer = get_metrics()
        with pytest.raises(ValueError):
            with use_metrics():
                raise ValueError
        assert get_metrics() is outer

    def test_accepts_existing_registry(self):
        mine = Metrics()
        with use_metrics(mine) as active:
            assert active is mine
            inc("k")
        assert mine.counter("k") == 1


class TestWorkerMetricsMerge:
    """The multiprocess contract: shard metrics are worker-count-invariant.

    Each worker records its shard under a fresh registry and ships the
    dict back; the parent folds them in shard order.  The session/draw
    accounting must therefore be identical for every worker count (the
    engine/honeypot profiling counters are excluded: script-profile
    caches are per-process, so a second worker legitimately re-profiles).
    """

    @pytest.fixture(scope="class")
    def runs(self):
        import repro.workload.shards as shards
        from repro.obs import use_metrics
        from repro.workload import ScenarioConfig
        from repro.workload.shards import generate_sharded

        config = ScenarioConfig(scale=1 / 40000, seed=7, hash_scale=0.004)
        out = {}
        for workers in (1, 2):
            shards._PLAN = None  # both runs pay plan construction
            with use_metrics() as metrics:
                dataset = generate_sharded(config, workers=workers)
            out[workers] = (dataset, metrics)
        return out

    @staticmethod
    def _invariant_counters(metrics: Metrics):
        # Excluded: engine/honeypot profiling (script-profile caches are
        # per-process) and the scheduler's physical accounting (retries
        # and worker heartbeats vary with the backend).
        # sched.tasks_submitted/completed stay in: one attempt per shard
        # whatever the worker count.
        return {
            name: value for name, value in metrics.counters.items()
            if not name.startswith((
                "engine.", "honeypot.", "sched.tasks_retried",
                "sched.heartbeat.",
            ))
        }

    def test_counters_match_across_worker_counts(self, runs):
        assert (self._invariant_counters(runs[1][1])
                == self._invariant_counters(runs[2][1]))

    def test_sessions_appended_equals_store_length(self, runs):
        for dataset, metrics in runs.values():
            assert metrics.counter("store.sessions_appended") == len(dataset.store)

    def test_generator_category_counters_sum_to_store(self, runs):
        for dataset, metrics in runs.values():
            emitted = sum(
                value for name, value in metrics.counters.items()
                if name.startswith("generator.sessions.")
            )
            assert emitted == len(dataset.store)

    def test_rng_draws_match_across_worker_counts(self, runs):
        assert runs[1][1].counter("rng.draws") == runs[2][1].counter("rng.draws")
        assert runs[1][1].counter("rng.draws") > 0

    def test_shard_spans_arrive_under_parent_tree(self, runs):
        for _, metrics in runs.values():
            prefix = "generate/emit/shard/"
            # Direct shard spans only: the block emitter's flush span
            # nests one level below (generate/emit/shard/<kind>/...).
            shard_paths = [p for p in metrics.spans
                           if p.startswith(prefix)
                           and "/" not in p[len(prefix):]]
            assert shard_paths
            assert metrics.spans["generate"]["count"] == 1
            emitted = sum(metrics.spans[p]["count"] for p in shard_paths)
            assert emitted == metrics.counter("shards.emitted")

    def test_shard_gauges_present(self, runs):
        for _, metrics in runs.values():
            assert metrics.gauges["shards.count"] > 0
            assert "shards.queue_wait_seconds" in metrics.gauges
            hist = metrics.histograms["shards.sessions_per_shard"]
            assert hist.count == metrics.counter("shards.emitted")
            assert hist.total == metrics.counter("store.sessions_appended")


class TestStopwatch:
    """Stopwatch is the only sanctioned clock outside the obs layer."""

    def test_elapsed_is_monotone_nonnegative(self):
        from repro.obs import stopwatch

        watch = stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert first >= 0.0
        assert second >= first

    def test_restart_resets_origin(self):
        from repro.obs import Stopwatch

        watch = Stopwatch()
        for _ in range(10_000):
            pass
        drained = watch.elapsed()
        watch.restart()
        assert watch.elapsed() <= drained + 1.0
