"""Tests for the fingerprinted dataset cache (repro.workload.cache)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.obs import get_metrics
from repro.workload import ScenarioConfig
from repro.workload import cache as cache_module
from repro.workload.cache import (
    DatasetCache,
    dataset_fingerprint,
    resolve_cache_dir,
)
from tests.metrics_delta import delta_since


@pytest.fixture()
def tiny_config() -> ScenarioConfig:
    return ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.005)


def _cache_counters(snapshot):
    delta = delta_since(get_metrics(), snapshot)
    return {k: v for k, v in delta["counters"].items() if k.startswith("cache.")}


class TestFingerprint:
    def test_stable_for_equal_configs(self, tiny_config):
        again = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.005)
        assert dataset_fingerprint(tiny_config) == dataset_fingerprint(again)

    def test_sensitive_to_every_field(self, tiny_config):
        base = dataset_fingerprint(tiny_config)
        for change in (
            {"seed": 8},
            {"scale": 1 / 40000},
            {"hash_scale": 0.004},
            {"intel_coverage": 0.5},
            {"uri_locality_bias": 0.0},
            {"rotate_campaign_members": False},
        ):
            other = dataclasses.replace(tiny_config, **change)
            assert dataset_fingerprint(other) != base, change

    def test_pipeline_family_not_worker_count(self, tiny_config):
        # One draw order for every backend and worker count: the config
        # alone keys an entry, so run options cannot enter the key.
        with pytest.raises(TypeError):
            dataset_fingerprint(tiny_config, workers=1)
        assert dataset_fingerprint(tiny_config) == \
            dataset_fingerprint(dataclasses.replace(tiny_config))

    def test_draw_order_version_keys_the_fingerprint(self, tiny_config,
                                                     monkeypatch):
        base = dataset_fingerprint(tiny_config)
        monkeypatch.setattr(cache_module, "DRAW_ORDER_VERSION",
                            cache_module.DRAW_ORDER_VERSION + 1)
        assert dataset_fingerprint(tiny_config) != base

    def test_entry_from_an_older_draw_order_is_a_miss(self, tiny_config,
                                                      tmp_path, monkeypatch):
        # An entry filled by code with the previous draw order must never
        # be served as a trace of the current one.
        dataset = repro.generate(tiny_config)
        cache = DatasetCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "DRAW_ORDER_VERSION",
                          cache_module.DRAW_ORDER_VERSION - 1)
            cache.store(dataset_fingerprint(tiny_config), dataset)
        snap = get_metrics().to_dict()
        assert cache.load(dataset_fingerprint(tiny_config)) is None
        assert _cache_counters(snap).get("cache.misses") == 1


class TestResolveCacheDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "/somewhere/else")
        assert resolve_cache_dir(tmp_path) == tmp_path

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert resolve_cache_dir() == tmp_path

    def test_unset_means_no_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache_dir() is None


class TestCacheRoundTrip:
    def test_miss_then_hit_returns_equal_dataset(self, tiny_config, tmp_path):
        snap = get_metrics().to_dict()
        cold = repro.generate(tiny_config, cache=tmp_path)
        counters = _cache_counters(snap)
        assert counters.get("cache.misses") == 1
        assert counters.get("cache.stores") == 1

        snap = get_metrics().to_dict()
        warm = repro.generate(tiny_config, cache=tmp_path)
        counters = _cache_counters(snap)
        assert counters.get("cache.hits") == 1
        assert "cache.misses" not in counters

        assert len(warm.store) == len(cold.store)
        assert np.array_equal(warm.store.start_time, cold.store.start_time)
        assert warm.store.hash_ids == cold.store.hash_ids
        assert warm.config == cold.config
        assert len(warm.campaigns) == len(cold.campaigns)
        assert sorted(e.sha256 for e in warm.intel.entries()) == sorted(
            e.sha256 for e in cold.intel.entries()
        )

    def test_config_change_misses(self, tiny_config, tmp_path):
        repro.generate(tiny_config, cache=tmp_path)
        other = dataclasses.replace(tiny_config, seed=8)
        snap = get_metrics().to_dict()
        repro.generate(other, cache=tmp_path)
        assert _cache_counters(snap).get("cache.misses") == 1
        entries = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(entries) == 2

    def test_v1_store_entry_is_a_miss(self, tiny_config, tmp_path):
        from tests.test_store_npz import write_v1_store

        cold = repro.generate(tiny_config, cache=tmp_path)
        entry = DatasetCache(tmp_path).entry_dir(dataset_fingerprint(tiny_config))
        write_v1_store(cold.store, entry / "store.npz")

        snap = get_metrics().to_dict()
        regenerated = repro.generate(tiny_config, cache=tmp_path)
        counters = _cache_counters(snap)
        assert counters.get("cache.corrupt_entries") == 1
        assert counters.get("cache.misses") == 1
        assert regenerated.store.content_digest() == cold.store.content_digest()

    def test_corrupt_store_regenerates(self, tiny_config, tmp_path):
        cold = repro.generate(tiny_config, cache=tmp_path)
        entry = DatasetCache(tmp_path).entry_dir(dataset_fingerprint(tiny_config))
        (entry / "store.npz").write_bytes(b"not a zipfile")

        snap = get_metrics().to_dict()
        regenerated = repro.generate(tiny_config, cache=tmp_path)
        counters = _cache_counters(snap)
        assert counters.get("cache.corrupt_entries") == 1
        assert counters.get("cache.misses") == 1
        assert counters.get("cache.stores") == 1
        assert len(regenerated.store) == len(cold.store)

        # The rewritten entry is healthy again.
        snap = get_metrics().to_dict()
        repro.generate(tiny_config, cache=tmp_path)
        assert _cache_counters(snap).get("cache.hits") == 1

    def test_missing_sidecar_regenerates(self, tiny_config, tmp_path):
        repro.generate(tiny_config, cache=tmp_path)
        entry = DatasetCache(tmp_path).entry_dir(dataset_fingerprint(tiny_config))
        (entry / "dataset.json").unlink()
        snap = get_metrics().to_dict()
        dataset = repro.generate(tiny_config, cache=tmp_path)
        counters = _cache_counters(snap)
        assert counters.get("cache.misses") == 1
        assert len(dataset.store) > 0

    def test_no_temp_dirs_left_behind(self, tiny_config, tmp_path):
        repro.generate(tiny_config, cache=tmp_path)
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
