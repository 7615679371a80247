"""Tests for the flight recorder (``repro.obs.trace``) and its exporters.

Covers the tracer itself (ring buffer, context stack, folding), schema
validation, the JSONL / timeline / Chrome / Prometheus exporters, and the
multiprocess contract: with tracing on, the sharded generator's
per-trace event sequences are identical for every worker count (modulo
shard provenance and run metadata).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    chrome_trace_events,
    read_trace_jsonl,
    render_prometheus,
    render_timeline,
    write_trace_jsonl,
)
from repro.obs.metrics import Metrics
from repro.obs.trace import (
    Tracer,
    emit,
    emit_block,
    enabled,
    get_tracer,
    group_by_trace,
    strip_volatile,
    strip_volatile_events,
    use_tracer,
    validate_trace,
)


class TestTracer:
    def test_emit_stamps_required_fields(self):
        t = Tracer()
        event = t.emit("unit.test", trace_id="x", sim_time=3.0, foo=1)
        assert event["kind"] == "unit.test"
        assert event["trace_id"] == "x"
        assert event["ts"] == 3.0
        assert event["data"] == {"foo": 1}
        assert event["seq"] == 0
        assert isinstance(event["wall"], float)

    def test_seq_strictly_increases(self):
        t = Tracer()
        seqs = [t.emit("k")["seq"] for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_optional_fields_omitted_when_absent(self):
        t = Tracer()
        event = t.emit("bare")
        assert "ts" not in event
        assert "data" not in event

    def test_ring_buffer_drops_oldest(self):
        t = Tracer(capacity=4)
        for i in range(6):
            t.emit("k", n=i)
        events = t.to_list()
        assert len(events) == 4
        assert t.dropped == 2
        assert t.emitted == 6
        assert events[0]["data"] == {"n": 2}

    def test_context_supplies_trace_id(self):
        t = Tracer()
        with t.context("outer"):
            a = t.emit("k")
            with t.context("inner"):
                b = t.emit("k")
            c = t.emit("k")
        d = t.emit("k")
        assert [e["trace_id"] for e in (a, b, c, d)] == [
            "outer", "inner", "outer", None]

    def test_explicit_trace_id_beats_context(self):
        t = Tracer()
        with t.context("ctx"):
            assert t.emit("k", trace_id="mine")["trace_id"] == "mine"

    def test_sink_streams_jsonl(self):
        sink = io.StringIO()
        t = Tracer(sink=sink)
        t.emit("a", trace_id="x")
        t.emit("b")
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [e["kind"] for e in lines] == ["a", "b"]

    def test_fold_restamps_seq_and_attaches_shard(self):
        worker = Tracer()
        worker.emit("w.one", trace_id="t", sim_time=1.0)
        worker.emit("w.two", trace_id="t", sim_time=2.0)
        parent = Tracer()
        parent.emit("p.zero")
        n = parent.fold(worker.to_list(),
                        shard={"index": 3, "kind": "bg_cmd", "key": "bg_cmd"})
        assert n == 2
        events = parent.to_list()
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[1]["shard"]["index"] == 3
        assert events[1]["ts"] == 1.0  # original stamps survive
        # The worker's own event objects are not mutated.
        assert "shard" not in worker.to_list()[0]


class TestCurrentTracer:
    def test_disabled_by_default(self):
        assert get_tracer() is None or True  # other tests may install one
        with use_tracer(None):
            assert not enabled()
            emit("k")  # must be a silent no-op

    def test_use_tracer_swaps_and_restores(self):
        t = Tracer()
        with use_tracer(t):
            assert get_tracer() is t
            emit("seen", trace_id="x")
            with use_tracer(None):
                assert not enabled()
                emit("silenced")
            emit_block("no_cred", 17, 40)
        assert get_tracer() is not t
        kinds = [e["kind"] for e in t.to_list()]
        assert kinds == ["seen", "generator.block"]

    def test_emit_block_names_category_day(self):
        t = Tracer()
        with use_tracer(t):
            emit_block("no_cred", 17, 40, spike=True)
        [event] = t.to_list()
        assert event["trace_id"] == "no_cred.d17"
        assert event["ts"] == 17 * 86400.0
        assert event["data"]["sessions"] == 40
        assert event["data"]["spike"] is True


class TestValidateTrace:
    def _good(self):
        t = Tracer()
        t.emit("a", trace_id="x", sim_time=1.0)
        t.emit("b", trace_id="x", sim_time=2.0)
        t.emit("c", trace_id="y", sim_time=0.5)
        return t.to_list()

    def test_valid_trace_has_no_problems(self):
        assert validate_trace(self._good()) == []

    def test_missing_required_field(self):
        events = self._good()
        del events[0]["kind"]
        assert any("kind" in p for p in validate_trace(events))

    def test_wrong_type(self):
        events = self._good()
        events[1]["seq"] = "one"
        assert any("seq" in p for p in validate_trace(events))

    def test_seq_must_strictly_increase(self):
        events = self._good()
        events[2]["seq"] = events[1]["seq"]
        assert any("not greater" in p for p in validate_trace(events))

    def test_ts_must_not_go_backwards_within_trace(self):
        events = self._good()
        events[1]["ts"] = 0.5  # trace "x" goes 1.0 -> 0.5
        problems = validate_trace(events)
        assert any("moves backwards" in p for p in problems)

    def test_ts_may_interleave_across_traces(self):
        # x@1.0, x@2.0, y@0.5 — fine: ordering is per-trace.
        assert validate_trace(self._good()) == []

    def test_bad_shard_shape(self):
        events = self._good()
        events[0]["shard"] = {"index": "zero"}
        problems = validate_trace(events)
        assert any("shard field" in p for p in problems)

    def test_unserialisable_data(self):
        events = self._good()
        events[0]["data"] = {"obj": object()}
        assert any("JSON" in p for p in validate_trace(events))

    def test_non_dict_event(self):
        assert any("not an object" in p for p in validate_trace(["nope"]))


class TestGroupingAndStripping:
    def test_group_by_trace_keeps_stream_order(self):
        t = Tracer()
        t.emit("a", trace_id="x")
        t.emit("b", trace_id="y")
        t.emit("c", trace_id="x")
        groups = group_by_trace(t.to_list())
        assert [e["kind"] for e in groups["x"]] == ["a", "c"]
        assert [e["kind"] for e in groups["y"]] == ["b"]

    def test_strip_volatile_removes_run_variant_fields(self):
        event = {"seq": 9, "wall": 123.4, "kind": "k", "trace_id": "x",
                 "ts": 1.0, "data": {"a": 1}, "shard": {"index": 0}}
        assert strip_volatile(event) == {
            "kind": "k", "trace_id": "x", "ts": 1.0, "data": {"a": 1}}


class TestTraceExporters:
    def _events(self):
        t = Tracer()
        with t.context("alpha"):
            t.emit("one", sim_time=0.0)
            t.emit("two", sim_time=10.0)
        t.emit("three", trace_id="beta", sim_time=5.0, note="hi")
        return t.to_list()

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        events = self._events()
        assert write_trace_jsonl(events, path) == 3
        assert read_trace_jsonl(path) == events

    def test_timeline_mentions_each_trace(self):
        text = render_timeline(self._events())
        assert "alpha" in text and "beta" in text
        assert "2 traces" in text

    def test_timeline_handles_no_stamped_events(self):
        assert "no sim-time-stamped" in render_timeline(
            [{"seq": 0, "wall": 0.0, "kind": "k"}])

    def test_chrome_trace_shapes(self):
        events = self._events()
        events[2]["shard"] = {"index": 4, "kind": "bg", "key": "bg"}
        out = chrome_trace_events(events)
        slices = [e for e in out if e["ph"] == "X"]
        instants = [e for e in out if e["ph"] == "i"]
        assert {s["name"] for s in slices} == {"alpha", "beta"}
        assert len(instants) == 3
        beta = next(s for s in slices if s["name"] == "beta")
        assert beta["pid"] == 4  # shard index becomes the pid
        alpha = next(s for s in slices if s["name"] == "alpha")
        assert alpha["ts"] == 0.0 and alpha["dur"] == pytest.approx(10e6)


class TestPrometheusExport:
    def test_sections_render(self):
        m = Metrics()
        m.inc("store.sessions_appended", 7)
        m.gauge_set("shards.count", 3)
        for v in (1.0, 2.0, 3.0):
            m.observe("lat", v)
        with m.span("generate"):
            pass
        text = render_prometheus(m)
        assert "# TYPE repro_store_sessions_appended counter" in text
        assert "repro_store_sessions_appended 7" in text
        assert "# TYPE repro_shards_count gauge" in text
        assert 'repro_lat{quantile="0.5"} 2' in text
        assert "repro_lat_sum 6" in text
        assert "repro_lat_count 3" in text
        assert "repro_span_generate_seconds" in text

    def test_names_are_sanitised(self):
        m = Metrics()
        m.inc("farm.alerts.fresh-hash")
        text = render_prometheus(m)
        assert "repro_farm_alerts_fresh_hash 1" in text

    def test_colliding_names_disambiguated(self):
        # Both sanitise to repro_a_b_c; exposing the pair untouched would
        # make Prometheus silently merge two different series.
        m = Metrics()
        m.inc("a.b-c", 1)
        m.inc("a.b_c", 2)
        text = render_prometheus(m)
        exposed = [line.split()[0] for line in text.splitlines()
                   if line and not line.startswith("#")]
        assert len(exposed) == len(set(exposed))
        assert "repro_a_b_c 1" not in text and "repro_a_b_c 2" not in text
        colliders = [n for n in exposed if n.startswith("repro_a_b_c_")]
        assert len(colliders) == 2
        for name in colliders:
            suffix = name.rsplit("_", 1)[1]
            assert len(suffix) == 6
            int(suffix, 16)  # deterministic hex digest, not a counter

    def test_collision_suffixes_stable_across_runs(self):
        m1, m2 = Metrics(), Metrics()
        for m in (m1, m2):
            m.inc("a.b-c")
            m.inc("a.b_c")
        assert render_prometheus(m1) == render_prometheus(m2)

    def test_help_lines_come_from_name_registry(self):
        from repro.obs.names import describe

        m = Metrics()
        m.inc("store.sessions_appended", 7)
        m.inc("ledger.tasks", 3)  # matches the ledger.* family pattern
        text = render_prometheus(m)
        direct = describe("counter", "store.sessions_appended")
        family = describe("counter", "ledger.tasks")
        assert direct and f"# HELP repro_store_sessions_appended {direct}" \
            in text
        assert family and f"# HELP repro_ledger_tasks {family}" in text

    def test_undeclared_name_gets_no_help_line(self):
        m = Metrics()
        m.inc("totally.undeclared.thing")
        text = render_prometheus(m)
        assert "# TYPE repro_totally_undeclared_thing counter" in text
        assert "# HELP repro_totally_undeclared_thing" not in text

    def test_empty_histogram_emits_nan_quantiles(self):
        m = Metrics()
        m.histogram("resource.task_cpu_seconds")  # registered, never fed
        text = render_prometheus(m)
        assert (
            'repro_resource_task_cpu_seconds{quantile="0.5"} NaN\n'
            'repro_resource_task_cpu_seconds{quantile="0.9"} NaN\n'
            'repro_resource_task_cpu_seconds{quantile="0.99"} NaN\n'
            "repro_resource_task_cpu_seconds_sum 0\n"
            "repro_resource_task_cpu_seconds_count 0\n"
        ) in text


class TestExporterEdgeCases:
    """Timeline / Chrome exporters on empty, single and stripped traces."""

    def _one_event(self):
        t = Tracer()
        t.emit("only", trace_id="solo", sim_time=3.0)
        return t.to_list()

    def test_timeline_empty_input(self):
        assert render_timeline([]) == "(no sim-time-stamped events to draw)"

    def test_chrome_empty_input(self):
        assert chrome_trace_events([]) == []

    def test_timeline_single_event(self):
        text = render_timeline(self._one_event())
        assert "1 traces, 1 stamped events" in text
        assert "solo" in text and "n=1" in text

    def test_chrome_single_event(self):
        out = chrome_trace_events(self._one_event())
        assert [e["ph"] for e in out] == ["X", "i"]
        slice_ = out[0]
        assert slice_["name"] == "solo"
        assert slice_["dur"] == 1.0  # zero-length span keeps a visible dur

    def test_timeline_identical_after_strip_volatile(self):
        t = Tracer()
        with t.context("alpha"):
            t.emit("one", sim_time=0.0)
            t.emit("two", sim_time=10.0)
        t.emit("three", trace_id="beta", sim_time=5.0)
        events = t.to_list()
        stripped = [strip_volatile(e) for e in events]
        # The timeline only reads logical fields, so a volatile-stripped
        # trace (no seq/wall/shard) must render byte-identically.
        assert render_timeline(stripped) == render_timeline(events)

    def test_chrome_works_on_stripped_events(self):
        t = Tracer()
        t.emit("one", trace_id="alpha", sim_time=0.0)
        t.emit("two", trace_id="alpha", sim_time=2.0)
        events = [strip_volatile(e) for e in t.to_list()]
        out = chrome_trace_events(events)
        slices = [e for e in out if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["pid"] == 0  # shard provenance stripped -> pid 0
        assert slices[0]["dur"] == pytest.approx(2e6)

    def test_heartbeat_events_strippable_before_export(self):
        t = Tracer()
        t.emit("sched.task.done", trace_id="sched:bg:k:0", sim_time=1.0)
        t.emit("sched.heartbeat.worker", trace_id="sched.worker:pool-0",
               sim_time=2.0, worker="pool-0", beat=1)
        kept = strip_volatile_events(t.to_list())
        assert [e["kind"] for e in kept] == ["sched.task.done"]
        assert "sched.worker:pool-0" not in render_timeline(kept)


class TestInstrumentedPaths:
    def test_session_events_carry_session_trace_id(self):
        from repro.honeypot.honeypot import Honeypot, HoneypotConfig
        from repro.honeypot.session import SessionConfig

        pot = Honeypot(HoneypotConfig(
            honeypot_id="hp-test", ip=0x01020304, country="US", asn=1,
            session_config=SessionConfig()))
        tracer = Tracer()
        with use_tracer(tracer):
            session = pot.accept(0x05060708, 40000, 22, now=0.0)
            session.try_login("root", "root", now=1.0)  # rejected password
            session.try_login("root", "password", now=2.0)
            session.input_line("uname -a", now=3.0)
            session.client_disconnect(4.0)
        events = tracer.to_list()
        assert validate_trace(events) == []
        kinds = [e["kind"] for e in events]
        assert kinds == [
            "honeypot.session.connect",
            "honeypot.login.failed",
            "honeypot.login.success",
            "honeypot.command.input",
            "honeypot.session.closed",
        ]
        expected = f"session:{session.session_id}"
        assert {e["trace_id"] for e in events} == {expected}
        assert all(e["data"]["sensor"] == "hp-test" for e in events)

    def test_engine_dispatch_reenters_schedule_time_context(self):
        from repro.simulation.engine import SimulationEngine

        tracer = Tracer()
        order = []
        with use_tracer(tracer):
            engine = SimulationEngine()
            with tracer.context("conn-a"):
                engine.schedule_at(2.0, lambda: order.append("a"), label="a")
            with tracer.context("conn-b"):
                engine.schedule_at(1.0, lambda: order.append("b"), label="b")
            engine.run()
        assert order == ["b", "a"]
        dispatches = [e for e in tracer.to_list()
                      if e["kind"] == "engine.dispatch"]
        assert [(e["trace_id"], e["ts"]) for e in dispatches] == [
            ("conn-b", 1.0), ("conn-a", 2.0)]

    def test_untraced_run_emits_nothing(self):
        from repro.simulation.engine import SimulationEngine

        with use_tracer(None):
            engine = SimulationEngine()
            engine.schedule_at(1.0, lambda: None)
            engine.run()
            assert get_tracer() is None


class TestWorkerCountInvariance:
    """The tentpole contract: traces are identical for every worker count.

    Per-trace event sequences (minus ``seq``/``wall``/``shard`` — the
    volatile fields) must match between workers=1 and workers=2; the only
    permitted difference is run metadata (the ``workers`` field of the
    untraced ``generate.merged`` event).
    """

    @pytest.fixture(scope="class")
    def traces(self):
        import repro
        import repro.workload.shards as shards
        from repro.obs import use_metrics
        from repro.workload import ScenarioConfig

        config = ScenarioConfig(scale=1 / 40000, seed=7, hash_scale=0.004)
        out = {}
        for workers in (1, 2):
            shards._PLAN = None
            tracer = Tracer(capacity=1 << 20)
            with use_metrics(), use_tracer(tracer):
                repro.generate(config, workers=workers)
            out[workers] = tracer.to_list()
        return out

    def test_traces_are_schema_valid(self, traces):
        for workers, events in traces.items():
            assert events, f"workers={workers} recorded nothing"
            assert validate_trace(events) == []

    def test_per_trace_sequences_match(self, traces):
        normal = {}
        for workers, events in traces.items():
            # Heartbeats are volatile *as a kind*: per-worker liveness is
            # real operational signal but is never worker-count-invariant.
            events = strip_volatile_events(events)
            normal[workers] = {
                tid: [strip_volatile(e) for e in evs]
                for tid, evs in group_by_trace(events).items()
                if tid is not None
            }
        assert set(normal[1]) == set(normal[2])
        for tid in normal[1]:
            assert normal[1][tid] == normal[2][tid], f"trace {tid} diverged"

    def test_only_run_metadata_differs_untraced(self, traces):
        def untraced(events):
            out = []
            for e in group_by_trace(events).get(None, []):
                e = strip_volatile(e)
                data = dict(e.get("data", {}))
                data.pop("workers", None)
                e["data"] = data
                out.append(e)
            return out

        assert untraced(traces[1]) == untraced(traces[2])

    def test_shard_provenance_attached_under_workers(self, traces):
        for events in traces.values():
            with_shard = [e for e in events if "shard" in e]
            assert with_shard
            for e in with_shard:
                assert set(e["shard"]) >= {"index", "kind", "key"}

