"""Tests for the stable public surface (repro.api)."""

import dataclasses
import warnings

import pytest

import repro
from repro.api import GENERATE_BACKENDS, RunOptions, WORKERS_ENV_VAR
from repro.workload.config import ScenarioConfig

CONFIG = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)


class TestRunOptions:
    def test_frozen(self):
        options = RunOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.backend = "pool"

    def test_defaults(self):
        options = RunOptions()
        assert options.backend is None
        assert options.workers is None
        assert options.cache is None

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunOptions(backend="carrier-pigeon")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            RunOptions(workers=0)

    def test_resolved_workers_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        assert RunOptions(workers=3).resolved_workers() == 3

    def test_resolved_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert RunOptions().resolved_workers() == 5
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert RunOptions().resolved_workers() == 1

    def test_default_backend_follows_resolved_workers(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert RunOptions().resolved_backend() == "inline"
        assert RunOptions(workers=2).resolved_backend() == "pool"
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert RunOptions().resolved_backend() == "pool"

    def test_derivable_with_replace(self):
        base = RunOptions()
        variant = dataclasses.replace(base, backend="pool", workers=2)
        assert (variant.backend, variant.workers) == ("pool", 2)
        assert base.backend is None


class TestGenerate:
    @pytest.fixture(scope="class")
    def inline_dataset(self):
        return repro.generate(CONFIG, backend="inline")

    def test_matches_sharded_pipeline(self, inline_dataset):
        from repro.sched.scheduler import generate_scheduled

        expected = generate_scheduled(CONFIG, workers=1)
        assert inline_dataset.store.content_digest() == \
            expected.store.content_digest()

    def test_serial_backend_is_rejected(self):
        # One draw order: the retired serial generator is not a backend.
        retired = "serial"
        with pytest.raises(ValueError, match=f"unknown backend '{retired}'"):
            repro.generate(CONFIG, backend=retired)

    def test_options_value_routes_the_run(self, inline_dataset):
        dataset = repro.generate(
            CONFIG, options=RunOptions(backend="inline", workers=1)
        )
        assert dataset.store.content_digest() == \
            inline_dataset.store.content_digest()

    def test_options_and_keywords_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            repro.generate(CONFIG, workers=2,
                           options=RunOptions(backend="inline"))

    def test_cache_shared_across_sharded_backends(self, tmp_path,
                                                  inline_dataset):
        from repro.obs import use_metrics

        with use_metrics() as cold:
            repro.generate(CONFIG, backend="inline", cache=tmp_path)
        # A different sharded backend hits the same entry: the bytes are
        # identical, so the family — not the backend — keys the cache.
        with use_metrics() as warm:
            hit = repro.generate(CONFIG, backend="pool", workers=2,
                                 cache=tmp_path)
        assert cold.counter("cache.misses") == 1
        assert warm.counter("cache.hits") == 1
        assert hit.store.content_digest() == \
            inline_dataset.store.content_digest()


class TestReportAndLoad:
    def test_report_renders_summary(self):
        dataset = repro.generate(CONFIG, backend="inline")
        text = repro.report(dataset)
        assert isinstance(text, str) and len(dataset.store) > 0
        assert "sessions" in text.lower()

    def test_load_npz_roundtrip(self, tmp_path):
        from repro.store.npz import save_npz

        dataset = repro.generate(CONFIG, backend="inline")
        path = tmp_path / "trace.npz"
        save_npz(dataset.store, path)
        loaded = repro.load(path, CONFIG)
        assert loaded.store.content_digest() == \
            dataset.store.content_digest()
        assert loaded.config == CONFIG

    def test_load_dataset_directory(self, tmp_path):
        from repro.workload.io import save_dataset

        dataset = repro.generate(CONFIG, backend="inline")
        save_dataset(dataset, tmp_path / "bundle")
        loaded = repro.load(tmp_path / "bundle")
        assert loaded.store.content_digest() == \
            dataset.store.content_digest()

    def test_load_rejects_unknown_format(self, tmp_path):
        bogus = tmp_path / "trace.parquet"
        bogus.write_text("nope")
        with pytest.raises(ValueError, match="neither"):
            repro.load(bogus)


class TestDeprecationShims:
    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.generate(CONFIG, backend="inline")


class TestPublicSurface:
    def test_all_names_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_facade_is_exported(self):
        for name in ("generate", "report", "load", "RunOptions",
                     "GENERATE_BACKENDS"):
            assert name in repro.__all__

    def test_backend_spellings_cover_sched(self):
        from repro.sched import BACKEND_NAMES

        assert set(BACKEND_NAMES) == set(GENERATE_BACKENDS)
