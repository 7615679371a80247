"""End-to-end metrics invariants over a tiny (1/40000) pipeline run.

The observability layer is always on; these tests run real pipeline
stages under an isolated registry and assert the cross-subsystem
invariants the counters are supposed to guarantee: emitted sessions match
the store, the event engine drops nothing, the analysis cache actually
caches, and the CLI surfaces it all.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro
from repro.agents.scripts import ScriptKind, build_script
from repro.core.report import full_report
from repro.obs import Metrics, use_metrics
from repro.workload import ScenarioConfig
from repro.workload.validation import validate

TINY = ScenarioConfig(scale=1 / 40000, seed=11, hash_scale=0.004)


@pytest.fixture(scope="module")
def generation():
    """(dataset, metrics recorded while generating it)."""
    with use_metrics() as metrics:
        dataset = repro.generate(TINY)
    return dataset, metrics


class TestGenerationInvariants:
    def test_sessions_emitted_matches_store(self, generation):
        dataset, metrics = generation
        assert metrics.counter("store.sessions_appended") == len(dataset.store)
        per_category = sum(
            value for name, value in metrics.counters.items()
            if name.startswith("generator.sessions.")
        )
        assert per_category == len(dataset.store)

    def test_fast_profiler_skips_the_engine(self, generation):
        # The script profiler drives the emulated shell directly (DESIGN
        # 6h), so pure generation schedules no engine events at all.
        _, metrics = generation
        assert metrics.counter("engine.events_scheduled") == 0
        assert metrics.counter("engine.events_dispatched") == 0

    def test_generation_stage_spans_recorded(self, generation):
        from collections import Counter

        from repro.workload.shards import _plan_for

        _, metrics = generation
        assert metrics.spans["generate"]["count"] == 1
        for stage in ("plan", "emit", "merge"):
            assert metrics.spans[f"generate/{stage}"]["count"] == 1
        # One worker-side span per shard, folded under generate/emit.
        per_kind = Counter(shard.kind for shard in _plan_for(TINY).shards)
        assert {path: cell["count"] for path, cell in metrics.spans.items()
                if path.startswith("generate/emit/shard/")
                and path.count("/") == 3} == {
            f"generate/emit/shard/{kind}": n for kind, n in per_kind.items()}

    def test_plan_stage_spans_recorded(self, monkeypatch):
        import repro.workload.shards as shards

        # The plan is cached per process: drop it so this run builds one,
        # whatever generated TINY before.
        monkeypatch.setattr(shards, "_PLAN", None)
        with use_metrics() as metrics:
            repro.generate(TINY, backend="inline", workers=1)
        for stage in ("population", "targets", "calendar", "campaigns",
                      "writers"):
            assert metrics.spans[f"generate/plan/{stage}"]["count"] == 1

    def test_rng_draws_counted(self, generation):
        _, metrics = generation
        assert metrics.counter("rng.draws") > 0
        assert metrics.counter("rng.streams_created") > 0


class TestAnalysisInvariants:
    def test_validate_hits_the_context_cache(self, generation):
        dataset, _ = generation
        with use_metrics() as metrics:
            # A copy: the dataset's own analysis context may already be warm.
            report = validate(replace(dataset))
        assert report.passed, report.render()
        assert metrics.counter("context.hits") > 0
        assert metrics.counter("context.misses") > 0
        assert metrics.spans["validate"]["count"] == 1

    def test_report_reuses_shared_intermediates(self, generation):
        dataset, _ = generation
        with use_metrics() as metrics:
            full_report(replace(dataset))
        # A full report touches ~30 analyses over <10 intermediates: the
        # shared context must serve far more hits than misses.
        assert metrics.counter("context.hits") > metrics.counter("context.misses")
        assert metrics.counter("context.category_codes.miss") == 1
        assert metrics.spans["report"]["count"] == 1
        per_figure = [p for p in metrics.spans
                      if p.startswith("report/fig")]
        assert len(per_figure) >= 20
        assert all(metrics.spans[p]["wall"] >= 0 for p in per_figure)


class TestLiveFarmInvariants:
    """The engine and session invariants, held through the live farm."""

    def test_live_sessions_balance(self):
        from repro.farm.live import IntrusionBehavior, LiveFarm, ScanBehavior

        with use_metrics() as metrics:
            farm = LiveFarm(seed=5, n_honeypots=3)
            farm.launch(0x0A000001, 0, ScanBehavior(), at=1.0)
            farm.launch(0x0A000002, 1,
                        IntrusionBehavior(lines=("uname -a", "exit")), at=2.0)
            farm.run()
            store = farm.harvest()
        assert len(store) == 2
        assert metrics.counter("engine.events_dispatched") > 0
        assert metrics.counter("engine.events_scheduled") == \
            metrics.counter("engine.events_dispatched")
        assert metrics.counter("honeypot.sessions_accepted") == 2
        closed = sum(value for name, value in metrics.counters.items()
                     if name.startswith("honeypot.sessions."))
        assert closed == 2

    @pytest.mark.parametrize("kind", list(ScriptKind), ids=lambda k: k.value)
    def test_every_script_kind_balances(self, kind):
        from repro.farm.live import IntrusionBehavior, LiveFarm

        lines = tuple(build_script(kind).lines)
        with use_metrics() as metrics:
            farm = LiveFarm(seed=5, n_honeypots=3)
            farm.launch(0x0A000003, 2, IntrusionBehavior(lines=lines), at=1.0)
            farm.run()
            store = farm.harvest()
        assert len(store) == 1
        scheduled = metrics.counter("engine.events_scheduled")
        dispatched = metrics.counter("engine.events_dispatched")
        assert dispatched > 0
        assert scheduled == dispatched
        accepted = metrics.counter("honeypot.sessions_accepted")
        closed = sum(value for name, value in metrics.counters.items()
                     if name.startswith("honeypot.sessions."))
        assert accepted == 1
        assert closed == accepted
        assert metrics.counter("honeypot.auth_attempts") >= accepted


class TestCliSurface:
    ARGS = ["--scale", "40000", "--seed", "11", "--hash-scale", "0.004"]

    def test_metrics_flag_prints_summary(self, capsys):
        from repro.__main__ import main

        with use_metrics():
            assert main(["validate", *self.ARGS, "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "stage timings" in err
        assert "generate" in err
        assert "store.sessions_appended" in err

    def test_metrics_path_dumps_json(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        import repro.workload.shards as shards

        monkeypatch.setattr(shards, "_PLAN", None)  # count plan-time runs
        out = tmp_path / "metrics.json"
        with use_metrics():
            assert main(["report", *self.ARGS, "--metrics", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["counters"]["store.sessions_appended"] > 0
        assert data["counters"]["rng.draws"] > 0
        assert data["counters"]["context.hits"] > 0
        assert any(p.startswith("report/fig") for p in data["spans"])
        # A disabled shape cache changes no byte of the store, so only the
        # counts show it: one shell run per script would take 343 runs
        # here, the shape path 25.
        assert 0 < data["counters"]["script.shell_runs"] <= 40
        assert data["counters"]["script.shape_hits"] > 0
        # The dump round-trips through the registry loader.
        loaded = Metrics()
        loaded.merge(data)
        assert loaded.to_dict() == data

    def test_env_hook_reports_without_flag(self, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_METRICS", "1")
        with use_metrics():
            assert main(["validate", *self.ARGS]) == 0
        assert "stage timings" in capsys.readouterr().err

    def test_no_flag_no_env_is_silent(self, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_METRICS", raising=False)
        with use_metrics():
            assert main(["validate", *self.ARGS]) == 0
        assert "stage timings" not in capsys.readouterr().err
