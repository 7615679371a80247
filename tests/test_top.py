"""Tests for the ``repro top`` scheduler dashboard.

``top`` renders the run ledger's fold (:class:`repro.obs.SchedFold`) of
the scheduler's ``sched.*`` events; these tests feed it events and read
the fold and the rendered frame.
"""

from __future__ import annotations

import json

from repro.obs import SchedFold
from repro.sched import render_top


def _hb(worker: str, beat: int, wall: float, sessions: int,
        state: str = "run", last_index: int = 0,
        tasks_done: int = 0) -> dict:
    return {
        "kind": "sched.heartbeat.worker",
        "wall": wall,
        "data": {
            "worker": worker, "beat": beat, "state": state,
            "last_index": last_index, "tasks_done": tasks_done,
            "sessions_done": sessions, "rss_kb": 40960,
        },
    }


def _done(index: int, sessions: int) -> dict:
    return {"kind": "sched.task.done",
            "data": {"index": index, "shard_kind": "bg",
                     "sessions": sessions}}


def _fold(*events) -> SchedFold:
    fold = SchedFold()
    for event in events:
        fold.feed(event)
    return fold


class TestFold:
    def test_empty_dashboard_renders(self):
        text = render_top(SchedFold())
        assert "no worker heartbeats yet" in text
        assert "(none)" in text

    def test_trace_built_sets_total(self):
        fold = _fold({"kind": "sched.trace.built", "data": {"tasks": 22}})
        assert fold.sched["tasks"] == 22

    def test_task_done_accumulates_progress(self):
        fold = _fold({"kind": "sched.trace.built", "data": {"tasks": 2}},
                     _done(0, 10), _done(1, 5))
        assert sorted(fold.tasks) == [0, 1]
        text = render_top(fold)
        assert "2/2" in text
        assert "sessions 15" in text

    def test_heartbeats_build_worker_rows(self):
        fold = _fold(_hb("pool-1", beat=1, wall=10.0, sessions=0),
                     _hb("pool-0", beat=1, wall=10.0, sessions=0))
        assert sorted(fold.workers) == ["pool-0", "pool-1"]
        text = render_top(fold)
        # rows sort by worker name
        assert text.index("pool-0") < text.index("pool-1")

    def test_rate_derived_from_consecutive_beats(self):
        fold = _fold(_hb("w", beat=1, wall=10.0, sessions=100))
        assert fold.workers["w"]["rate"] is None  # one beat: no rate yet
        fold.feed(_hb("w", beat=2, wall=12.0, sessions=300))
        assert fold.workers["w"]["rate"] == 100.0

    def test_burst_beats_rate_over_the_window_not_the_sliver(self):
        # Batched result drains deliver beats microseconds apart; the
        # rate must span the window, not divide by the sliver.
        fold = _fold(_hb("w", beat=1, wall=10.0, sessions=0),
                     _hb("w", beat=2, wall=10.000001, sessions=500))
        assert fold.workers["w"]["rate"] is None  # sliver: no rate yet
        fold.feed(_hb("w", beat=3, wall=11.0, sessions=1000))
        assert fold.workers["w"]["rate"] == 1000.0

    def test_replayed_beat_ignored(self):
        fold = _fold(_hb("w", beat=2, wall=10.0, sessions=50),
                     _hb("w", beat=2, wall=20.0, sessions=999),
                     _hb("w", beat=1, wall=30.0, sessions=999))
        assert fold.workers["w"]["sessions_done"] == 50

    def test_retry_and_stale_land_in_alerts(self):
        fold = _fold(
            _hb("pool-0", beat=1, wall=1.0, sessions=0),
            {"kind": "sched.task.retry",
             "data": {"index": 4, "attempt": 2, "error": "boom"}},
            {"kind": "sched.heartbeat.stale",
             "data": {"worker": "pool-0", "silent_seconds": 31.0,
                      "last_index": 4}},
        )
        assert fold.retries == 1
        assert [a["kind"] for a in fold.alerts] == ["stale-worker"]
        assert fold.workers["pool-0"]["state"] == "STALE"
        text = render_top(fold)
        assert "RETRY" in text and "STALE" in text
        assert "retries 1" in text and "stale 1" in text

    def test_unknown_kinds_ignored(self):
        fold = _fold({"kind": "honeypot.session.start", "data": {}},
                     {"kind": "generate.merged", "data": {"sessions": 42}})
        assert fold.records() == []
        assert fold.merged_sessions == 42

    def test_worker_row_update_tolerates_missing_fields(self):
        fold = _fold({"kind": "sched.heartbeat.worker",
                      "data": {"worker": "w", "beat": 1}})
        row = fold.workers["w"]
        assert row["beat"] == 1
        assert row["rate"] is None


class TestCli:
    def _trace(self, tmp_path):
        events = [
            {"kind": "sched.trace.built", "data": {"tasks": 2}},
            _hb("pool-0", beat=1, wall=1.0, sessions=0),
            _hb("pool-1", beat=1, wall=1.0, sessions=0),
            _done(0, 7),
            _hb("pool-0", beat=2, wall=2.0, sessions=7, tasks_done=1),
            _done(1, 3),
            {"kind": "generate.merged", "data": {"sessions": 10}},
        ]
        target = tmp_path / "trace.jsonl"
        with open(target, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        return target

    def test_top_once_renders_worker_rows(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["top", "--once",
                     "--input", str(self._trace(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "pool-0" in out and "pool-1" in out
        assert "2/2" in out
        assert "merged 10" in out

    def test_top_once_skips_garbage_lines(self, tmp_path, capsys):
        from repro.__main__ import main

        target = self._trace(tmp_path)
        with open(target, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        assert main(["top", "--once", "--input", str(target)]) == 0
        assert "pool-0" in capsys.readouterr().out

    def test_top_once_on_empty_file(self, tmp_path, capsys):
        from repro.__main__ import main

        target = tmp_path / "empty.jsonl"
        target.touch()
        assert main(["top", "--once", "--input", str(target)]) == 0
        assert "no worker heartbeats yet" in capsys.readouterr().out


class TestAgainstRealTrace:
    def test_dashboard_folds_a_recorded_pool_run(self):
        import repro.workload.shards as shards
        from repro.obs import Tracer, use_metrics, use_tracer
        from repro.sched import generate_scheduled
        from repro.workload import ScenarioConfig

        shards._PLAN = None
        config = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)
        tracer = Tracer()
        with use_metrics(), use_tracer(tracer):
            dataset = generate_scheduled(config, backend="pool", workers=2)
        fold = _fold(*tracer.to_list())
        assert fold.sched["tasks"] == len(fold.tasks) > 0
        assert sum(row["sessions"] for row in fold.tasks.values()) \
            == len(dataset.store)
        assert fold.merged_sessions == len(dataset.store)
        assert set(fold.workers) == {"pool-0", "pool-1"}
        for row in fold.workers.values():
            assert row["beat"] > 0
            assert row["rss_kb"] > 0
        text = render_top(fold)
        assert "100%" in text
