"""Tests for whole-dataset persistence."""

import numpy as np
import pytest

from repro.workload.io import load_dataset, save_dataset


class TestDatasetRoundtrip:
    @pytest.fixture(scope="class")
    def reloaded(self, small_dataset, tmp_path_factory):
        directory = tmp_path_factory.mktemp("dataset")
        save_dataset(small_dataset, directory)
        return load_dataset(directory)

    def test_store_preserved(self, small_dataset, reloaded):
        assert len(reloaded.store) == len(small_dataset.store)
        assert np.array_equal(reloaded.store.client_ip,
                              small_dataset.store.client_ip)

    def test_config_preserved(self, small_dataset, reloaded):
        assert reloaded.config.seed == small_dataset.config.seed
        assert reloaded.config.scale == small_dataset.config.scale

    def test_deployment_preserved(self, small_dataset, reloaded):
        assert reloaded.deployment.n_honeypots == 221
        assert reloaded.deployment.countries == small_dataset.deployment.countries
        original = small_dataset.deployment.sites[0]
        loaded = reloaded.deployment.sites[0]
        assert (loaded.honeypot_id, loaded.ip, loaded.country, loaded.asn) == \
            (original.honeypot_id, original.ip, original.country, original.asn)

    def test_campaigns_preserved(self, small_dataset, reloaded):
        h1_original = small_dataset.campaign("H1")
        h1_loaded = reloaded.campaign("H1")
        assert h1_loaded is not None
        assert h1_loaded.primary_hash == h1_original.primary_hash
        assert h1_loaded.honeypot_indices == h1_original.honeypot_indices

    def test_intel_preserved(self, small_dataset, reloaded):
        h1 = small_dataset.campaign("H1")
        entry = reloaded.intel.lookup(h1.primary_hash)
        assert entry is not None
        assert entry.tag.value == "trojan"
        assert len(reloaded.intel) == len(small_dataset.intel)

    def test_envelopes_preserved(self, small_dataset, reloaded):
        for cat, env in small_dataset.envelopes.items():
            assert np.allclose(reloaded.envelopes[cat], env)

    def test_analyses_run_on_reloaded(self, reloaded):
        from repro.core.report import full_report
        report = full_report(reloaded)
        assert report["table4"][0].hash_label == "H1"


class TestAtomicSaveDataset:
    def test_failed_save_keeps_previous_bundle(self, small_dataset, tmp_path,
                                               monkeypatch):
        save_dataset(small_dataset, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def write_half_then_fail(file, **arrays):
            file.write(b"PK\x03\x04 partial zip member")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(small_dataset, tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before  # same files, same bytes, no staging left
