"""Tests for the fast .npz store persistence."""

import json
import pickle
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import npz
from repro.store.interning import StringTable
from repro.store.npz import save_npz, load_npz
from repro.store.records import STORE_COLUMN_DTYPES, CommandScript
from repro.store.store import HashIdColumn, SessionStore, StoreBuilder

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
        assert loaded.content_digest() == small_store.content_digest()

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
        # Corrupt the version marker; every v2 member is a plain array.
        data = dict(np.load(path, allow_pickle=False))
        data["format_version"] = np.array([99])
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(ValueError, match="version 99"):
            load_npz(path)

    def test_no_member_is_pickled(self, small_store, tmp_path):
        path = tmp_path / "gen.npz"
        save_npz(small_store, path)
        with np.load(path, allow_pickle=False) as data:
            for name in data.files:
                assert data[name].dtype != object, name

    def test_digest_is_independent_of_the_file_version(self, small_store,
                                                       monkeypatch):
        before = small_store.content_digest()
        monkeypatch.setattr(npz, "_FORMAT_VERSION", npz._FORMAT_VERSION + 1)
        assert small_store.content_digest() == before


def _small_store(n: int):
    builder = StoreBuilder()
    for i in range(n):
        builder.append(make_record(client_ip=i, start_time=i * 60.0))
    return builder.build()


def _write_half_then_fail(fp, array, **kwargs):
    """A member-write stand-in that dies part way through the write."""
    fp.write(b"\x93NUMPY partial member")
    raise OSError("disk full")


class TestAtomicSave:
    def test_writes_exactly_the_given_path(self, tmp_path):
        # np.savez alone would append ".npz" to this name.
        path = tmp_path / "trace"
        save_npz(_small_store(3), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace"]
        assert len(load_npz(path)) == 3

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.npz"
        save_npz(_small_store(4), path)
        before = path.read_bytes()
        monkeypatch.setattr(np.lib.format, "write_array", _write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_npz(_small_store(9), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]


def write_v1_store(store, path):
    """Write ``store`` in the retired format-1 layout.

    Format 1 kept every column at its in-memory dtype, the hash column as
    CSR offsets, and the string tables and scripts as pickled object
    arrays.
    """
    arrays = {name: getattr(store, name) for name in npz._NUMERIC_COLUMNS}
    arrays["hash_values"] = store.hash_ids.values
    arrays["hash_offsets"] = store.hash_ids.offsets
    for table_name in npz._TABLES:
        arrays[f"table_{table_name}"] = np.array(
            getattr(store, table_name).values(), dtype=object)
    scripts = [[list(s.commands), list(s.uris)] for s in store.scripts]
    arrays["scripts_json"] = np.array([json.dumps(scripts)], dtype=object)
    arrays["format_version"] = np.array([1])
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _rewrite_members(path, drop=(), **replace):
    """Rewrite the zip at ``path``, dropping and replacing .npy members.

    Replacements are written with pickling allowed, so a test can plant an
    object-dtype member.
    """
    with zipfile.ZipFile(path) as src:
        members = {info.filename: src.read(info) for info in src.infolist()}
    with zipfile.ZipFile(path, "w") as dst:
        for filename, raw in members.items():
            name = filename[:-len(".npy")]
            if name not in drop and name not in replace:
                dst.writestr(filename, raw)
        for name, arr in replace.items():
            with dst.open(name + ".npy", "w") as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=True)


def _member(path, name):
    with np.load(path, allow_pickle=False) as data:
        return data[name]


class TestLoaderFailsLoudly:
    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_npz(_small_store(6), path)
        return path

    def test_v1_file_is_refused_without_unpickling(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "v1.npz"
        write_v1_store(_small_store(3), path)

        def no_unpickling(*args, **kwargs):
            raise AssertionError("load_npz unpickled a member")

        monkeypatch.setattr(pickle, "load", no_unpickling)
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        with pytest.raises(ValueError, match="version 1 .*regenerate"):
            load_npz(path)

    def test_extra_object_member_is_refused(self, saved):
        _rewrite_members(saved, payload=np.array([{"x": 1}], dtype=object))
        with pytest.raises(ValueError, match="unexpected members.*payload"):
            load_npz(saved)

    def test_object_dtype_column_is_refused(self, saved):
        _rewrite_members(saved, strings=np.array(["{}"], dtype=object))
        with pytest.raises(ValueError, match="'strings'"):
            load_npz(saved)

    def test_missing_member_is_refused(self, saved):
        _rewrite_members(saved, drop=("duration",))
        with pytest.raises(ValueError, match="missing members.*duration"):
            load_npz(saved)

    @pytest.mark.parametrize("keep", [0.0, 0.002, 0.25, 0.5, 0.9, 0.999])
    def test_truncated_file_is_refused(self, saved, keep):
        raw = saved.read_bytes()
        saved.write_bytes(raw[:int(len(raw) * keep)])
        with pytest.raises(ValueError, match="store file"):
            load_npz(saved)

    def test_bare_npy_array_is_refused(self, tmp_path):
        path = tmp_path / "trace.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(ValueError, match="not a store file"):
            load_npz(path)

    def test_column_length_mismatch_is_refused(self, saved):
        honeypot = _member(saved, "honeypot")
        _rewrite_members(saved, honeypot=np.append(honeypot, honeypot[:1]))
        with pytest.raises(ValueError, match="'honeypot' has shape"):
            load_npz(saved)

    def test_hash_values_disagreeing_with_lengths_are_refused(self, saved):
        lengths = _member(saved, "hash_lengths").copy()
        lengths[0] += 1
        _rewrite_members(saved, hash_lengths=lengths)
        with pytest.raises(ValueError, match="'hash_values' has shape"):
            load_npz(saved)

    def test_column_too_wide_for_its_dtype_is_refused(self, saved):
        honeypot = _member(saved, "honeypot").astype(np.int64)
        _rewrite_members(saved, honeypot=honeypot)
        with pytest.raises(ValueError, match="does not widen to int32"):
            load_npz(saved)


# -- round-trip property -------------------------------------------------------

_INT32 = np.iinfo(np.int32)
_COLUMN_DTYPES = {**STORE_COLUMN_DTYPES, "n_commands": np.uint16,
                  "has_uri": np.bool_}


def _column_values(dtype):
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return st.booleans()
    if dtype.kind == "f":
        # Arbitrary bit patterns: NaN payloads, -0.0, +-inf, subnormals.
        bits = np.dtype(f"u{dtype.itemsize}")
        edges = [np.array([v], dtype).view(bits)[0].item()
                 for v in (np.nan, -0.0, np.inf, -np.inf)]
        return st.one_of(
            st.sampled_from(edges),
            st.integers(0, np.iinfo(bits).max),
        ).map(lambda b: np.array([b], bits).view(dtype)[0])
    info = np.iinfo(dtype)
    edges = [v for v in (info.min, info.max, -1, 0) if info.min <= v]
    return st.one_of(st.sampled_from(edges),
                     st.integers(int(info.min), int(info.max)))


_texts = st.text(max_size=8)


@st.composite
def extreme_stores(draw):
    n = draw(st.integers(0, 12))
    columns = {
        name: np.array(draw(st.lists(_column_values(dtype),
                                     min_size=n, max_size=n)), dtype=dtype)
        for name, dtype in _COLUMN_DTYPES.items()
    }
    hash_value = st.one_of(st.sampled_from([0, np.iinfo(np.int64).max]),
                           st.integers(0, np.iinfo(np.int64).max))
    hash_lists = draw(st.lists(
        st.one_of(st.just(()), st.lists(hash_value, max_size=64).map(tuple)),
        min_size=n, max_size=n,
    ))
    tables = {
        name: StringTable(draw(st.lists(_texts, unique=True, max_size=4)))
        for name in npz._TABLES
    }
    scripts = draw(st.lists(
        st.builds(CommandScript,
                  st.lists(_texts, max_size=3).map(tuple),
                  st.lists(_texts, max_size=2).map(tuple)),
        max_size=3,
    ))
    return SessionStore(hash_ids=HashIdColumn.from_lists(hash_lists),
                        scripts=scripts, **columns, **tables)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(store=extreme_stores())
    def test_extreme_values_round_trip_bitwise(self, store, tmp_path_factory):
        path = tmp_path_factory.mktemp("prop") / "s.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        for name, dtype in _COLUMN_DTYPES.items():
            got, want = getattr(loaded, name), getattr(store, name)
            assert got.dtype == np.dtype(dtype), name
            assert got.tobytes() == want.tobytes(), name
        assert loaded.hash_ids.values.dtype == np.int64
        assert loaded.hash_ids == store.hash_ids
        for name in npz._TABLES:
            assert getattr(loaded, name).values() == getattr(store, name).values()
        assert loaded.scripts == store.scripts
        assert loaded.content_digest() == store.content_digest()
