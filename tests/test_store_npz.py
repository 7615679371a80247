"""Tests for the fast .npz store persistence."""

import numpy as np
import pytest

from repro.store.npz import save_npz, load_npz
from repro.store.store import StoreBuilder

from tests.test_store import make_record


class TestNpzRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        builder = StoreBuilder()
        builder.append(make_record())
        builder.append(make_record(client_ip=9, protocol="telnet",
                                   file_hashes=("a" * 64, "b" * 64)))
        builder.append(make_record(commands=(), file_hashes=(),
                                   login_success=False, password="",
                                   username="", client_version=""))
        store = builder.build()
        path = tmp_path / "trace.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert len(loaded) == len(store)
        for i in range(len(store)):
            assert loaded.record(i) == store.record(i)

    def test_columns_preserved(self, tmp_path):
        builder = StoreBuilder()
        for i in range(20):
            builder.append(make_record(client_ip=i, start_time=i * 86_400.0))
        store = builder.build()
        path = tmp_path / "t.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert np.array_equal(loaded.client_ip, store.client_ip)
        assert np.array_equal(loaded.day, store.day)
        assert loaded.hash_ids == store.hash_ids

    def test_empty_store(self, tmp_path):
        store = StoreBuilder().build()
        path = tmp_path / "empty.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert len(loaded) == 0

    def test_generated_roundtrip(self, small_store, tmp_path):
        path = tmp_path / "gen.npz"
        save_npz(small_store, path)
        loaded = load_npz(path)
        assert len(loaded) == len(small_store)
        assert np.array_equal(loaded.start_time, small_store.start_time)
        assert np.array_equal(loaded.honeypot, small_store.honeypot)
        assert loaded.hashes.values() == small_store.hashes.values()
        # Spot-check full records.
        for i in (0, len(loaded) // 2, len(loaded) - 1):
            assert loaded.record(i) == small_store.record(i)

    def test_analyses_work_on_loaded(self, small_store, tmp_path):
        from repro.core.classify import classify_store
        path = tmp_path / "gen.npz"
        save_npz(small_store, path)
        loaded = load_npz(path)
        assert np.array_equal(classify_store(loaded), classify_store(small_store))

    def test_version_check(self, tmp_path):
        builder = StoreBuilder()
        builder.append(make_record())
        path = tmp_path / "v.npz"
        save_npz(builder.build(), path)
        # Corrupt the version marker.
        data = dict(np.load(path, allow_pickle=True))
        data["format_version"] = np.array([99])
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError):
            load_npz(path)


def _small_store(n: int):
    builder = StoreBuilder()
    for i in range(n):
        builder.append(make_record(client_ip=i, start_time=i * 60.0))
    return builder.build()


def _write_half_then_fail(file, **arrays):
    """A savez_compressed stand-in that dies part way through the write."""
    file.write(b"PK\x03\x04 partial zip member")
    raise OSError("disk full")


class TestAtomicSave:
    def test_writes_exactly_the_given_path(self, tmp_path):
        # np.savez_compressed alone would append ".npz" to this name.
        path = tmp_path / "trace"
        save_npz(_small_store(3), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace"]
        assert len(load_npz(path)) == 3

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.npz"
        save_npz(_small_store(4), path)
        before = path.read_bytes()
        monkeypatch.setattr(np, "savez_compressed", _write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_npz(_small_store(9), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]
