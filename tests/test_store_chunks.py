"""Builder append-path equivalence and CSR hash-column properties.

:class:`StoreBuilder` keeps one list of parts per column, whichever path
added them: whatever mix of row appends, block appends (every
``hash_ids`` form) and adopted payloads produces the rows, the frozen
store — and its saved .npz bytes — depend only on the row contents and
order.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.store as store_module
from repro.store.npz import save_npz
from repro.store.records import SessionRecord
from repro.store.store import (
    _CLOSE_REASONS,
    HashBlockCsr,
    HashIdColumn,
    StoreBuilder,
    hash_csr,
)


def _rows(n: int, seed: int = 5):
    """Deterministic synthetic row data covering every column."""
    rng = np.random.default_rng(seed)
    hash_ids = []
    for i in range(n):
        k = int(rng.integers(0, 4))
        hash_ids.append(tuple(int(h) for h in rng.integers(0, 50, size=k)))
    return dict(
        start_time=rng.random(n) * 1e6,
        duration=rng.random(n).astype(np.float32) * 300,
        honeypot_id=rng.integers(0, 221, n),
        protocol=rng.integers(0, 2, n),
        client_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        client_asn=rng.integers(0, 65_000, n),
        client_country_id=rng.integers(0, 55, n),
        n_attempts=rng.integers(0, 11, n),
        login_success=rng.random(n) < 0.5,
        script_id=rng.integers(-1, 3, n),
        password_id=rng.integers(-1, 40, n),
        username_id=rng.integers(-1, 20, n),
        hash_ids=hash_ids,
        close_reason_id=rng.integers(0, 5, n),
        version_id=rng.integers(-1, 6, n),
    )


def _new_builder() -> StoreBuilder:
    """A builder with every id in :func:`_rows` backed by a table entry
    (the invariant real callers maintain; adopt/merge remaps rely on it)."""
    builder = StoreBuilder()
    builder.intern_script(["uname -a", "free"], [])
    builder.intern_script(["wget http://x/a"], ["http://x/a"])
    builder.intern_script(["echo hi > f"], [])
    for i in range(221):
        builder.honeypots.intern(f"hp-{i:03d}")
    for i in range(55):
        builder.countries.intern(f"C{i:02d}")
    for i in range(40):
        builder.passwords.intern(f"pw{i}")
    for i in range(20):
        builder.usernames.intern(f"user{i}")
    for i in range(50):
        builder.hashes.intern(f"{i:064x}")
    for i in range(6):
        builder.versions.intern(f"SSH-2.0-v{i}")
    return builder


def _append_rows(builder: StoreBuilder, rows: dict, lo: int, hi: int) -> None:
    """Append rows ``lo:hi`` one :class:`SessionRecord` at a time.

    Every id in :func:`_rows` names an entry :func:`_new_builder` already
    interned, so ``append`` resolves each string back to the same id.
    """
    def value(table, column, i):
        index = int(rows[column][i])
        return table.value_of(index) if index >= 0 else ""

    for i in range(lo, hi):
        script_id = int(rows["script_id"][i])
        script = builder.scripts[script_id] if script_id >= 0 else None
        builder.append(SessionRecord(
            start_time=float(rows["start_time"][i]),
            duration=float(rows["duration"][i]),
            honeypot_id=value(builder.honeypots, "honeypot_id", i),
            protocol=("ssh", "telnet")[int(rows["protocol"][i])],
            client_ip=int(rows["client_ip"][i]),
            client_asn=int(rows["client_asn"][i]),
            client_country=value(builder.countries, "client_country_id", i),
            n_login_attempts=int(rows["n_attempts"][i]),
            login_success=bool(rows["login_success"][i]),
            username=value(builder.usernames, "username_id", i),
            password=value(builder.passwords, "password_id", i),
            commands=script.commands if script else (),
            uris=script.uris if script else (),
            file_hashes=tuple(builder.hashes.value_of(h)
                              for h in rows["hash_ids"][i]),
            close_reason=_CLOSE_REASONS[int(rows["close_reason_id"][i])],
            client_version=value(builder.versions, "version_id", i),
        ))


def _append_block(builder: StoreBuilder, rows: dict, lo: int, hi: int,
                  hash_ids=None) -> None:
    """Append rows ``lo:hi`` as one block; ``hash_ids`` overrides the
    per-row tuples with another :data:`HashIdsArg` form of the same rows."""
    builder.append_block(
        start_time=rows["start_time"][lo:hi],
        duration=rows["duration"][lo:hi],
        honeypot_id=rows["honeypot_id"][lo:hi],
        protocol=rows["protocol"][lo:hi],
        client_ip=rows["client_ip"][lo:hi],
        client_asn=rows["client_asn"][lo:hi],
        client_country_id=rows["client_country_id"][lo:hi],
        n_attempts=rows["n_attempts"][lo:hi],
        login_success=rows["login_success"][lo:hi],
        script_id=rows["script_id"][lo:hi],
        password_id=rows["password_id"][lo:hi],
        username_id=rows["username_id"][lo:hi],
        hash_ids=(rows["hash_ids"][lo:hi] if hash_ids is None
                  else hash_ids),
        close_reason_id=rows["close_reason_id"][lo:hi],
        version_id=rows["version_id"][lo:hi],
    )


def _npz_bytes(store, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    save_npz(store, path)
    return path.read_bytes()


class TestAppendPathEquivalence:
    N = 500

    def test_block_matches_scalar_byte_identical(self, tmp_path):
        rows = _rows(self.N)
        rowwise = _new_builder()
        _append_rows(rowwise, rows, 0, self.N)
        block = _new_builder()
        for lo in range(0, self.N, 97):  # uneven block sizes
            _append_block(block, rows, lo, min(lo + 97, self.N))
        a = _npz_bytes(rowwise.build(), tmp_path, "rows.npz")
        b = _npz_bytes(block.build(), tmp_path, "block.npz")
        assert a == b

    def test_interleaved_paths_byte_identical(self, tmp_path):
        rows = _rows(self.N, seed=11)
        reference = _new_builder()
        _append_rows(reference, rows, 0, self.N)
        mixed = _new_builder()
        cuts = [0, 3, 120, 121, 250, 333, self.N]
        for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            if j % 2:
                _append_rows(mixed, rows, lo, hi)
            else:
                _append_block(mixed, rows, lo, hi)
        a = _npz_bytes(reference.build(), tmp_path, "ref.npz")
        b = _npz_bytes(mixed.build(), tmp_path, "mixed.npz")
        assert a == b

    def test_adopted_builder_byte_identical(self, tmp_path):
        """Adopting a forked shard's payload equals appending the rows
        directly."""
        rows = _rows(self.N, seed=31)
        reference = _new_builder()
        _append_rows(reference, rows, 0, self.N)

        trunk = _new_builder()
        _append_block(trunk, rows, 0, 200)
        shard = trunk.fork_tables()
        _append_block(shard, rows, 200, self.N)
        trunk.adopt_store(shard.payload())

        a = _npz_bytes(reference.build(), tmp_path, "ref.npz")
        b = _npz_bytes(trunk.build(), tmp_path, "adopted.npz")
        assert a == b

    def test_length_mismatch_rejected(self):
        rows = _rows(8)
        builder = _new_builder()
        with pytest.raises(ValueError):
            builder.append_block(
                start_time=rows["start_time"],
                duration=rows["duration"][:4],
                honeypot_id=rows["honeypot_id"],
                protocol=rows["protocol"],
                client_ip=rows["client_ip"],
                client_asn=rows["client_asn"],
                client_country_id=rows["client_country_id"],
                n_attempts=rows["n_attempts"],
                login_success=rows["login_success"],
                script_id=rows["script_id"],
                password_id=rows["password_id"],
                username_id=rows["username_id"],
                hash_ids=None,
                close_reason_id=rows["close_reason_id"],
                version_id=rows["version_id"],
            )


#: Ways :func:`test_any_split_freezes_identically` appends one segment:
#: row by row, or as a block in each :data:`HashIdsArg` form.
_SEGMENT_FORMS = ("rows", "none", "tuples", "csr")


class TestAnySplit:
    @given(
        segments=st.lists(
            st.tuples(st.sampled_from(_SEGMENT_FORMS),
                      st.integers(min_value=0, max_value=9)),
            max_size=10,
        ),
        batch=st.sampled_from([2, 5, store_module.ROW_BATCH]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_split_freezes_identically(self, segments, batch, seed):
        """Any split of one set of rows into row appends and blocks
        (empty ones included) gives the same payload and store as one
        block of every row, whatever the row batch."""
        total = sum(n for _, n in segments)
        rows = _rows(total, seed=seed)
        lo = 0
        for form, n in segments:
            # A block's hash form must describe its rows: None is no
            # hashes.
            if form == "none":
                rows["hash_ids"][lo:lo + n] = [()] * n
            lo += n

        reference = _new_builder()
        _append_block(reference, rows, 0, total)
        split = _new_builder()
        with mock.patch.object(store_module, "ROW_BATCH", batch):
            lo = 0
            for form, n in segments:
                hi = lo + n
                if form == "rows":
                    _append_rows(split, rows, lo, hi)
                    assert len(split._rows) < batch
                else:
                    lengths, values = hash_csr(rows["hash_ids"][lo:hi], n)
                    _append_block(split, rows, lo, hi, hash_ids={
                        "none": None,
                        "tuples": rows["hash_ids"][lo:hi],
                        "csr": HashBlockCsr(
                            np.zeros(0, np.int64) if values is None
                            else values, lengths),
                    }[form])
                lo = hi
            assert len(split) == total

            want, got = reference.payload(), split.payload()
            assert want.columns.keys() == got.columns.keys()
            for name, column in want.columns.items():
                assert got.columns[name].dtype == column.dtype
                assert np.array_equal(got.columns[name], column), name
            assert np.array_equal(got.hash_values, want.hash_values)
            assert np.array_equal(got.hash_lengths, want.hash_lengths)
            assert (split.build().content_digest()
                    == reference.build().content_digest())


hash_lists = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=1_000), min_size=0, max_size=6
    ).map(tuple),
    min_size=0,
    max_size=40,
)


class TestHashIdColumnProperties:
    @given(lists=hash_lists)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_matches_lists(self, lists):
        col = HashIdColumn.from_lists(lists)
        assert len(col) == len(lists)
        assert list(col) == lists
        assert [col[i] for i in range(len(col))] == lists
        assert col == lists

    @given(lists=hash_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_matches_python_indexing(self, lists, data):
        col = HashIdColumn.from_lists(lists)
        idx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(len(lists) - 1, 0)),
                max_size=30,
            )
            if lists
            else st.just([])
        )
        taken = col.take(np.asarray(idx, dtype=np.int64))
        assert list(taken) == [lists[i] for i in idx]

    def test_negative_indexing_and_offsets(self):
        col = HashIdColumn.from_lists([(1,), (), (2, 3)])
        assert col[-1] == (2, 3)
        assert col.offsets.tolist() == [0, 1, 1, 3]
        assert col.lengths.tolist() == [1, 0, 2]
