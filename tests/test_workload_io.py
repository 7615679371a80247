"""Tests for whole-dataset persistence."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
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
        assert reloaded.intel.tag_of(h1.primary_hash).value == "trojan"
        assert len(reloaded.intel) == len(small_dataset.intel)

    def test_envelopes_preserved(self, small_dataset, reloaded):
        for cat, env in small_dataset.envelopes.items():
            assert np.allclose(reloaded.envelopes[cat], env)

    def test_analyses_run_on_reloaded(self, reloaded):
        from repro.core.report import full_report
        report = full_report(reloaded)
        assert report["table4"][0].hash_label == "H1"


class TestMetadataJson:
    def test_written_compact_and_read_in_either_form(self, small_dataset,
                                                     tmp_path):
        save_dataset(small_dataset, tmp_path)
        meta_path = tmp_path / "dataset.json"
        compact = meta_path.read_text(encoding="utf-8")
        meta = json.loads(compact)
        assert compact == json.dumps(meta, separators=(",", ":"))

        meta_path.write_text(json.dumps(meta, indent=2), encoding="utf-8")
        reloaded = load_dataset(tmp_path)
        assert reloaded.config == small_dataset.config
        assert len(reloaded.campaigns) == len(small_dataset.campaigns)


class TestAtomicSaveDataset:
    def test_failed_save_keeps_previous_bundle(self, small_dataset, tmp_path,
                                               monkeypatch):
        save_dataset(small_dataset, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def write_half_then_fail(fp, array, **kwargs):
            fp.write(b"\x93NUMPY partial member")
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(small_dataset, tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before  # same files, same bytes, no staging left


#: Loads the bundle in argv[1] and saves it back over itself, dying by
#: SIGKILL right after the first npz member is written.
_KILLED_WRITER = textwrap.dedent("""
    import os, signal, sys
    import numpy as np
    from repro.workload.io import load_dataset, save_dataset

    dataset = load_dataset(sys.argv[1])
    write_array = np.lib.format.write_array

    def write_then_die(fp, array, **kwargs):
        write_array(fp, array, **kwargs)
        os.kill(os.getpid(), signal.SIGKILL)

    np.lib.format.write_array = write_then_die
    save_dataset(dataset, sys.argv[1])
""")


class TestKilledWriter:
    def test_next_save_removes_dead_writers_staging_only(self, small_dataset,
                                                         tmp_path):
        save_dataset(small_dataset, tmp_path)
        digest = small_dataset.content_digest()
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        child = subprocess.Popen([sys.executable, "-c", _KILLED_WRITER,
                                  str(tmp_path)], env=env)
        assert child.wait(timeout=300) == -signal.SIGKILL
        left = sorted(p.name for p in tmp_path.glob(".*.tmp"))
        assert left == [f".dataset.json.{child.pid}.tmp",
                        f".store.npz.{child.pid}.tmp"]
        assert load_dataset(tmp_path).content_digest() == digest

        live = subprocess.Popen([sys.executable, "-c",
                                 "import time; time.sleep(120)"])
        try:
            kept = [tmp_path / f".store.npz.{live.pid}.tmp",
                    tmp_path / ".store.npz.draft.tmp"]
            for path in kept:
                path.write_bytes(b"in progress")
            save_dataset(small_dataset, tmp_path)
            assert sorted(tmp_path.glob(".*.tmp")) == sorted(kept)
        finally:
            live.kill()
            live.wait()
        assert load_dataset(tmp_path).content_digest() == digest
