"""Columnar session store and its builder.

The builder is columnar end-to-end: every fixed-dtype column accumulates
fixed-size numpy chunks (:class:`_ColumnChunks`), block appends adopt the
caller's arrays with zero per-element Python work, and ``build()`` is a
single concatenate per column.  Variable-length per-session hash lists are
CSR-shaped (values + offsets) all the way through — in the builder, in the
frozen :class:`SessionStore` (:class:`HashIdColumn`) and on disk
(``repro.store.npz``), so nothing ever round-trips through per-row Python
tuples on the hot path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.honeypot.session import CloseReason
from repro.obs import get_metrics, inc as _metric_inc, stopwatch
from repro.store.interning import EMPTY_MARK, StringTable, mark_proven
from repro.store.records import STORE_COLUMN_DTYPES, CommandScript, SessionRecord

SECONDS_PER_DAY = 86_400

PROTOCOL_SSH = 0
PROTOCOL_TELNET = 1
_PROTOCOL_NAMES = ("ssh", "telnet")

_CLOSE_REASONS = tuple(reason.value for reason in CloseReason)
_CLOSE_REASON_IDS = {name: i for i, name in enumerate(_CLOSE_REASONS)}

#: Rows per scalar-append chunk.  Large enough that chunk bookkeeping is
#: invisible next to the per-row work, small enough that a freshly sealed
#: partial chunk wastes little memory.
CHUNK_ROWS = 65_536

#: Blocks at least this long are adopted as chunks of their own (zero
#: copy); shorter blocks are copied into the open chunk so thousands of
#: small day-blocks don't degenerate into thousands of tiny chunks.
ADOPT_ROWS = 4_096


class _ColumnChunks:
    """Fixed-dtype column accumulator: a list of sealed numpy chunks.

    Scalar appends fill a preallocated fixed-size chunk; array extends seal
    the open chunk and adopt the (dtype-coerced) array as a chunk of its
    own, so a block append costs one vectorised conversion at most and no
    per-element Python work.  ``concatenate`` closes the column into one
    contiguous array.
    """

    __slots__ = ("dtype", "_chunks", "_cur", "_fill")

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self._chunks: List[np.ndarray] = []
        self._cur: Optional[np.ndarray] = None
        self._fill = 0

    def append(self, value) -> None:
        cur = self._cur
        if cur is None:
            cur = self._cur = np.empty(CHUNK_ROWS, self.dtype)
            self._fill = 0
        cur[self._fill] = value
        self._fill += 1
        if self._fill == CHUNK_ROWS:
            self._chunks.append(cur)
            self._cur = None

    def _seal(self) -> None:
        """Close the open scalar chunk (if any) at its current fill."""
        if self._cur is not None:
            self._chunks.append(self._cur[: self._fill].copy())
            self._cur = None

    def extend(self, values) -> None:
        """Append a whole array (or sequence) of values.

        The hot path is one vectorised dtype coercion plus one slice
        assignment into the open fixed-size chunk, so thousands of small
        day-blocks cost one numpy op each instead of one chunk each.
        Blocks that don't fit the open chunk — including anything of
        :data:`ADOPT_ROWS` or more — seal it and are adopted as chunks of
        their own; the caller hands over ownership, so an ndarray of the
        column dtype is taken without a copy.
        """
        arr = np.asarray(values, dtype=self.dtype)
        if arr.ndim != 1:
            raise ValueError("column blocks must be one-dimensional")
        n = arr.shape[0]
        if not n:
            return
        cur = self._cur
        fill = self._fill
        if cur is not None and n < ADOPT_ROWS and fill + n <= CHUNK_ROWS:
            cur[fill:fill + n] = arr
            self._fill = fill + n
            return
        if cur is None and n < ADOPT_ROWS:
            cur = self._cur = np.empty(CHUNK_ROWS, self.dtype)
            cur[:n] = arr
            self._fill = n
            return
        self._seal()
        self._chunks.append(arr)

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks) + self._fill

    def concatenate(self) -> np.ndarray:
        self._seal()
        if not self._chunks:
            return np.zeros(0, self.dtype)
        if len(self._chunks) == 1:
            return self._chunks[0]
        out = np.concatenate(self._chunks)
        # Keep the column usable (and cheap) after a freeze: future
        # appends extend the already-concatenated single chunk.
        self._chunks = [out]
        return out


class HashIdColumn:
    """CSR (values + offsets) view of the per-session hash-id lists.

    Row ``i`` is ``values[offsets[i]:offsets[i+1]]``; indexing returns the
    row as a tuple (the historical list-of-tuples interface), while the
    vectorised accessors (``values``, ``offsets``, ``lengths``, ``take``,
    ``remap``) are what persistence, filtering and the analyses use.
    """

    __slots__ = ("values", "offsets", "_lengths")

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        self.values = np.asarray(values, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self._lengths: Optional[np.ndarray] = None

    @classmethod
    def from_lists(cls, lists: Sequence[Tuple[int, ...]]) -> "HashIdColumn":
        n = len(lists)
        lengths = np.fromiter((len(t) for t in lists), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = np.fromiter(
            (h for t in lists for h in t), dtype=np.int64, count=int(offsets[-1])
        )
        return cls(values, offsets)

    @classmethod
    def empty(cls, n_rows: int = 0) -> "HashIdColumn":
        return cls(np.zeros(0, np.int64), np.zeros(n_rows + 1, np.int64))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        if self._lengths is None:
            self._lengths = np.diff(self.offsets)
        return self._lengths

    def __getitem__(self, index) -> Tuple[int, ...]:
        if isinstance(index, slice):
            raise TypeError("HashIdColumn does not support slicing; use take()")
        index = int(index)
        if index < 0:
            index += len(self)
        row = self.values[self.offsets[index]:self.offsets[index + 1]]
        return tuple(int(h) for h in row)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, HashIdColumn):
            return bool(
                np.array_equal(self.values, other.values)
                and np.array_equal(self.offsets, other.offsets)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                self[i] == tuple(other[i]) for i in range(len(self))
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def take(self, idx: np.ndarray) -> "HashIdColumn":
        """Vectorised row gather (the CSR analogue of fancy indexing)."""
        idx = np.asarray(idx, dtype=np.int64)
        lens = self.lengths[idx]
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return HashIdColumn(np.zeros(0, np.int64), offsets)
        starts = self.offsets[idx]
        flat = np.repeat(starts - offsets[:-1], lens) + np.arange(total)
        return HashIdColumn(self.values[flat], offsets)

    def remap(self, mapping: np.ndarray) -> "HashIdColumn":
        """A new column with every value replaced by ``mapping[value]``."""
        if not len(self.values):
            return HashIdColumn(self.values, self.offsets)
        return HashIdColumn(
            np.take(np.asarray(mapping, dtype=np.int64), self.values),
            self.offsets,
        )


class HashBlockCsr:
    """Pre-flattened per-row hash ids: CSR ``values`` + per-row ``lengths``.

    The block-emission path accumulates hash ids in this shape so a merged
    block append is two array extends instead of a per-row tuple walk.
    """

    __slots__ = ("values", "lengths")

    def __init__(self, values: np.ndarray, lengths: np.ndarray):
        self.values = np.asarray(values, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)

    def take(self, rows: np.ndarray) -> "HashBlockCsr":
        """The block whose row ``k`` is this block's row ``rows[k]``."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = np.cumsum(self.lengths) - self.lengths
        lengths = self.lengths[rows]
        # Position j of output row k reads values[starts[rows[k]] + j].
        out_starts = np.cumsum(lengths) - lengths
        gather = (np.repeat(starts[rows] - out_starts, lengths)
                  + np.arange(int(lengths.sum())))
        return HashBlockCsr(self.values[gather], lengths)


#: Per-row hash ids accepted by the block-append path: ``None`` (no row has
#: hashes), one tuple (every row shares it), a per-row sequence, or a
#: pre-flattened :class:`HashBlockCsr`.
HashIdsArg = Union[
    None, Tuple[int, ...], Sequence[Tuple[int, ...]], HashBlockCsr
]


def hash_csr(
    hash_ids: HashIdsArg, n: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(lengths, values)`` of an ``n``-row :data:`HashIdsArg`.

    ``lengths`` holds each row's hash count; ``values`` is the flattened
    ids, or None when no row carries a hash.
    """
    if hash_ids is None:
        return np.zeros(n, np.int64), None
    if isinstance(hash_ids, HashBlockCsr):
        if len(hash_ids.lengths) != n:
            raise ValueError("append_block sequences must share one length")
        return hash_ids.lengths, (hash_ids.values if len(hash_ids.values) else None)
    if isinstance(hash_ids, tuple):
        # One tuple shared by every row of the block.
        k = len(hash_ids)
        if not k:
            return np.zeros(n, np.int64), None
        return np.full(n, k, np.int64), np.tile(np.asarray(hash_ids, np.int64), n)
    if len(hash_ids) != n:
        raise ValueError("append_block sequences must share one length")
    if not any(hash_ids):
        return np.zeros(n, np.int64), None
    lengths = np.fromiter((len(t) for t in hash_ids), np.int64, count=n)
    values = np.fromiter(
        (h for t in hash_ids for h in t), np.int64, count=int(lengths.sum())
    )
    return lengths, values


_ID_COLUMNS_WITH_SENTINEL = {
    "script_id": "script",
    "password_id": "password",
    "username_id": "username",
    "version_id": "version",
}


#: Payload table name -> the builder/store attribute holding the table.
_STRING_TABLES = {
    "honeypot": "honeypots",
    "country": "countries",
    "password": "passwords",
    "username": "usernames",
    "hash": "hashes",
    "version": "versions",
}

#: ``(fork mark, entries interned after it)`` of one side table.
TableTail = Tuple[Tuple[int, bytes], list]


@dataclass
class ShardPayload:
    """A shard's result: its rows plus, for each side table, the fork mark
    and only the entries interned after that mark (DESIGN §6a).

    The merge builder already holds every entry below the marks, so this
    is all a worker ships: ``columns`` are the :data:`STORE_COLUMN_DTYPES`
    arrays, the hash column is CSR values + per-row lengths, and ``tails``
    maps ``honeypot`` ... ``version`` and ``script`` to a
    :data:`TableTail` (scripts as :class:`CommandScript`).
    """

    columns: Dict[str, np.ndarray]
    hash_values: np.ndarray
    hash_lengths: np.ndarray
    tails: Dict[str, TableTail]

    def __len__(self) -> int:
        return len(self.hash_lengths)


def _remap_ids(remap: Union[Sequence[int], np.ndarray], ids: np.ndarray,
               sentinel: bool) -> np.ndarray:
    """Vectorised id remap; with ``sentinel`` the value -1 maps to itself."""
    table = np.asarray(remap, dtype=np.int32)
    if sentinel:
        # -1 indexes the appended trailing sentinel (negative fancy index).
        table = np.concatenate((table, np.array([-1], dtype=np.int32)))
    if not len(ids):
        return np.zeros(0, np.int32)
    return table[np.asarray(ids, dtype=np.int64)]


class StoreBuilder:
    """Accumulates session records, then freezes them into a SessionStore."""

    def __init__(self) -> None:
        self.honeypots = StringTable()
        self.countries = StringTable()
        self.passwords = StringTable()
        self.usernames = StringTable()
        self.hashes = StringTable()
        self.versions = StringTable()
        self.scripts: List[CommandScript] = []
        self._script_ids: dict = {}
        # Rolling script-list digest + fork marks, mirroring StringTable's
        # prefix-mark machinery so script remaps get the same adopt fast
        # path the string tables do.
        self._scripts_chain: bytes = EMPTY_MARK[1]
        self._scripts_marks: Dict[int, bytes] = {}
        self._scripts_fork_mark: Tuple[int, bytes] = EMPTY_MARK

        self._cols: Dict[str, _ColumnChunks] = {
            name: _ColumnChunks(dtype)
            for name, dtype in STORE_COLUMN_DTYPES.items()
        }
        self._hash_values = _ColumnChunks(np.int64)
        self._hash_lengths = _ColumnChunks(np.int64)
        self._n_rows = 0

    def __len__(self) -> int:
        return self._n_rows

    # -- interning helpers ---------------------------------------------------

    def intern_script(self, commands: Sequence[str], uris: Sequence[str] = ()) -> int:
        """Intern a command script; returns its id (-1 for empty)."""
        commands = tuple(commands)
        uris = tuple(uris)
        if not commands:
            return -1
        key = (commands, uris)
        existing = self._script_ids.get(key)
        if existing is not None:
            return existing
        script_id = len(self.scripts)
        self.scripts.append(CommandScript(commands=commands, uris=uris))
        self._script_ids[key] = script_id
        digest = hashlib.blake2b(self._scripts_chain, digest_size=16)
        for command in commands:
            digest.update(command.encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
        digest.update(b"\x01")
        for uri in uris:
            digest.update(uri.encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
        self._scripts_chain = digest.digest()
        return script_id

    # -- append paths ----------------------------------------------------------

    def append(self, record: SessionRecord) -> int:
        """Append a row-shaped record. Returns its index."""
        script_id = self.intern_script(record.commands, record.uris)
        return self.append_interned(
            start_time=record.start_time,
            duration=record.duration,
            honeypot_id=self.honeypots.intern(record.honeypot_id),
            protocol=(
                PROTOCOL_SSH if record.protocol == "ssh" else PROTOCOL_TELNET
            ),
            client_ip=record.client_ip,
            client_asn=record.client_asn,
            client_country_id=self.countries.intern(record.client_country),
            n_attempts=record.n_login_attempts,
            login_success=record.login_success,
            script_id=script_id,
            password_id=(
                self.passwords.intern(record.password) if record.password else -1
            ),
            username_id=(
                self.usernames.intern(record.username) if record.username else -1
            ),
            hash_ids=tuple(self.hashes.intern(h) for h in record.file_hashes),
            close_reason_id=_CLOSE_REASON_IDS.get(record.close_reason, 0),
            version_id=(
                self.versions.intern(record.client_version)
                if record.client_version
                else -1
            ),
        )

    def append_interned(
        self,
        start_time: float,
        duration: float,
        honeypot_id: int,
        protocol: int,
        client_ip: int,
        client_asn: int,
        client_country_id: int,
        n_attempts: int,
        login_success: bool,
        script_id: int = -1,
        password_id: int = -1,
        username_id: int = -1,
        hash_ids: Tuple[int, ...] = (),
        close_reason_id: int = 0,
        version_id: int = -1,
    ) -> int:
        """Fast path for bulk generation: all ids pre-interned.

        Scalars fill the current per-column chunk directly.
        """
        cols = self._cols
        cols["start_time"].append(start_time)
        cols["duration"].append(duration)
        cols["honeypot"].append(honeypot_id)
        cols["protocol"].append(protocol)
        cols["client_ip"].append(client_ip)
        cols["client_asn"].append(client_asn)
        cols["client_country"].append(client_country_id)
        cols["n_attempts"].append(n_attempts)
        cols["login_success"].append(login_success)
        cols["script_id"].append(script_id)
        cols["password_id"].append(password_id)
        cols["username_id"].append(username_id)
        cols["close_reason"].append(close_reason_id)
        cols["version_id"].append(version_id)
        self._hash_lengths.append(len(hash_ids))
        for h in hash_ids:
            self._hash_values.append(h)
        self._n_rows += 1
        _metric_inc("store.sessions_appended")
        return self._n_rows - 1

    def append_block(
        self,
        start_time: Sequence[float],
        duration: Sequence[float],
        honeypot_id: Sequence[int],
        protocol: Sequence[int],
        client_ip: Sequence[int],
        client_asn: Sequence[int],
        client_country_id: Sequence[int],
        n_attempts: Sequence[int],
        login_success: Sequence[bool],
        script_id: Sequence[int],
        password_id: Sequence[int],
        username_id: Sequence[int],
        hash_ids: HashIdsArg,
        close_reason_id: Sequence[int],
        version_id: Sequence[int],
    ) -> None:
        """Bulk append: all sequences must share one length.

        This is the generator's hot path — ndarray inputs are adopted as
        column chunks after a single vectorised dtype coercion, with zero
        per-element Python work.  ``hash_ids`` is ``None`` when no row in
        the block carries hashes, a single tuple shared by every row
        (campaign blocks), or a per-row sequence of tuples.
        """
        n = len(start_time)
        for seq in (duration, honeypot_id, protocol, client_ip, client_asn,
                    client_country_id, n_attempts, login_success, script_id,
                    password_id, username_id, close_reason_id, version_id):
            if len(seq) != n:
                raise ValueError("append_block sequences must share one length")
        cols = self._cols
        cols["start_time"].extend(start_time)
        cols["duration"].extend(duration)
        cols["honeypot"].extend(honeypot_id)
        cols["protocol"].extend(protocol)
        cols["client_ip"].extend(client_ip)
        cols["client_asn"].extend(client_asn)
        cols["client_country"].extend(client_country_id)
        cols["n_attempts"].extend(n_attempts)
        cols["login_success"].extend(login_success)
        cols["script_id"].extend(script_id)
        cols["password_id"].extend(password_id)
        cols["username_id"].extend(username_id)
        cols["close_reason"].extend(close_reason_id)
        cols["version_id"].extend(version_id)
        lengths, values = hash_csr(hash_ids, n)
        self._hash_lengths.extend(lengths)
        if values is not None:
            self._hash_values.extend(values)
        self._n_rows += n
        _metric_inc("store.sessions_appended", n)
        _metric_inc("store.blocks_appended")

    # -- shard / merge support -------------------------------------------------

    def fork_tables(self) -> "StoreBuilder":
        """A new empty builder sharing this builder's interned tables.

        The copy starts with identical table contents (so every id interned
        here resolves to the same string there) but accumulates its own
        rows and its own new table entries.  This is the shard-generation
        primitive: workers fork the base tables, emit rows, and the parent
        adopts their :meth:`payload`\\ s back in a deterministic order.
        """
        out = StoreBuilder()
        out.honeypots = self.honeypots.copy()
        out.countries = self.countries.copy()
        out.passwords = self.passwords.copy()
        out.usernames = self.usernames.copy()
        out.hashes = self.hashes.copy()
        out.versions = self.versions.copy()
        out.scripts = list(self.scripts)
        out._script_ids = dict(self._script_ids)
        out._scripts_chain = self._scripts_chain
        out._scripts_fork_mark = (len(self.scripts), self._scripts_chain)
        self._scripts_marks[len(self.scripts)] = self._scripts_chain
        out._scripts_marks = dict(self._scripts_marks)
        return out

    def payload(self) -> ShardPayload:
        """This builder's rows plus each table's fork mark and tail.

        A builder from :meth:`fork_tables` ships only what it interned
        after the fork; one built from scratch has the empty mark and
        ships every entry.
        """
        tails: Dict[str, TableTail] = {
            name: getattr(self, attr).tail()
            for name, attr in _STRING_TABLES.items()
        }
        mark = self._scripts_fork_mark
        tails["script"] = (mark, self.scripts[mark[0]:])
        values, lengths = self._hash_arrays()
        return ShardPayload(self._column_arrays(), values, lengths, tails)

    def _tail_remaps(self, tails: Dict[str, TableTail]
                     ) -> Dict[str, Tuple[np.ndarray, bool]]:
        """Id remaps from a payload's tables into this builder's.

        Each marked prefix maps to itself and each tail entry is interned
        here, in order.  Every mark is proven before anything is interned,
        so a refused payload leaves this builder as it was.  Each value is
        ``(remap_array, is_identity)``; the remap is the identity when
        every entry keeps its own index — the common shard-merge case,
        where the whole ``np.take`` gather can be skipped.
        """
        for name, (mark, _) in tails.items():
            if name == "script":
                proven = mark_proven(mark, self._scripts_marks,
                                     len(self.scripts), self._scripts_chain)
            else:
                proven = getattr(self, _STRING_TABLES[name]).proves(mark)
            if not proven:
                raise ValueError(
                    f"cannot prove the {name} table's fork mark at "
                    f"{mark[0]} entries: refusing to adopt a partial table")
        out: Dict[str, Tuple[np.ndarray, bool]] = {}
        for name, ((shared, _), tail) in tails.items():
            if name == "script":
                ids = [self.intern_script(s.commands, s.uris) for s in tail]
            else:
                table = getattr(self, _STRING_TABLES[name])
                ids = [table.intern(v) for v in tail]
            tail_ids = np.asarray(ids, dtype=np.int32)
            head = np.arange(shared + len(tail_ids), dtype=np.int32)
            out[name] = (np.concatenate((head[:shared], tail_ids)),
                         bool(np.array_equal(tail_ids, head[shared:])))
        return out

    def _column_arrays(self) -> Dict[str, np.ndarray]:
        """The accumulated fixed-dtype columns, concatenated."""
        return {name: col.concatenate() for name, col in self._cols.items()}

    def _hash_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, lengths) of the accumulated CSR hash column."""
        return self._hash_values.concatenate(), self._hash_lengths.concatenate()

    def _adopt_arrays(
        self,
        remap: Dict[str, Tuple[np.ndarray, bool]],
        columns: Dict[str, np.ndarray],
        hash_values: np.ndarray,
        hash_lengths: np.ndarray,
    ) -> None:
        """Append whole remapped columns (the vectorised adopt core).

        Columns whose remap is the identity are adopted as-is — with
        prefix-marked tables (the shard-merge shape) that is every column,
        so the adopt degenerates to plain chunk extends.
        """
        n = len(columns["start_time"])
        cols = self._cols
        _REMAP_KEYS = {"honeypot": "honeypot", "client_country": "country"}
        all_identity = True
        for name in STORE_COLUMN_DTYPES:
            if name in _REMAP_KEYS:
                table, identity = remap[_REMAP_KEYS[name]]
                sentinel = False
            elif name in _ID_COLUMNS_WITH_SENTINEL:
                table, identity = remap[_ID_COLUMNS_WITH_SENTINEL[name]]
                sentinel = True
            else:
                cols[name].extend(columns[name])
                continue
            if identity:
                cols[name].extend(columns[name])
            else:
                all_identity = False
                cols[name].extend(_remap_ids(table, columns[name], sentinel))
        self._hash_lengths.extend(hash_lengths)
        if len(hash_values):
            hash_table, hash_identity = remap["hash"]
            if hash_identity:
                self._hash_values.extend(hash_values)
            else:
                all_identity = False
                self._hash_values.extend(
                    np.take(hash_table.astype(np.int64), hash_values)
                )
        self._n_rows += n
        metrics = get_metrics()
        metrics.inc("store.adopts")
        metrics.inc("store.sessions_adopted", n)
        if all_identity:
            metrics.inc("store.adopts_fastpath")

    def adopt(self, other: "StoreBuilder") -> None:
        """Append all of ``other``'s rows (its :meth:`payload`)."""
        self.adopt_store(other.payload())

    def adopt_store(self, shard: Union[ShardPayload, "SessionStore"]) -> None:
        """Append a shard payload's rows, remapping its interned ids.

        Only the payload's table tails are interned; its marks must name
        prefixes this builder holds (as it does after forking the shard's
        base with :meth:`fork_tables`), or ``ValueError`` names the first
        table it cannot prove.  A frozen store is adopted from the empty
        mark: every table is re-interned in full, which merges stores that
        share no tables.
        """
        watch = stopwatch()
        if isinstance(shard, SessionStore):
            tails: Dict[str, TableTail] = {
                name: (EMPTY_MARK, getattr(shard, attr).values())
                for name, attr in _STRING_TABLES.items()
            }
            tails["script"] = (EMPTY_MARK, shard.scripts)
            shard = ShardPayload(
                {name: getattr(shard, name) for name in STORE_COLUMN_DTYPES},
                shard.hash_ids.values, shard.hash_ids.lengths, tails,
            )
        self._adopt_arrays(self._tail_remaps(shard.tails), shard.columns,
                           shard.hash_values, shard.hash_lengths)
        get_metrics().observe("store.adopt_seconds", watch.elapsed())

    def build(self) -> "SessionStore":
        """Freeze the accumulated rows into an immutable columnar store.

        One concatenate per column; the script-derived ``n_commands`` /
        ``has_uri`` columns are gathered from the interned script table.
        """
        watch = stopwatch()
        columns = self._column_arrays()
        script_id = columns["script_id"]
        n_commands = np.zeros(self._n_rows, dtype=np.uint16)
        has_uri = np.zeros(self._n_rows, dtype=bool)
        if len(self.scripts):
            script_lengths = np.array(
                [min(len(s.commands), 65535) for s in self.scripts],
                dtype=np.uint16)
            script_has_uri = np.array([s.has_uri for s in self.scripts],
                                      dtype=bool)
            mask = script_id >= 0
            n_commands[mask] = script_lengths[script_id[mask]]
            has_uri[mask] = script_has_uri[script_id[mask]]
        values, lengths = self._hash_arrays()
        offsets = np.zeros(self._n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        store = SessionStore(
            n_commands=n_commands,
            has_uri=has_uri,
            hash_ids=HashIdColumn(values, offsets),
            honeypots=self.honeypots,
            countries=self.countries,
            passwords=self.passwords,
            usernames=self.usernames,
            hashes=self.hashes,
            versions=self.versions,
            scripts=list(self.scripts),
            **columns,
        )
        metrics = get_metrics()
        metrics.inc("store.freezes")
        metrics.observe("store.freeze_seconds", watch.elapsed())
        return store


class SessionStore:
    """Immutable columnar store of session records.

    All column attributes are numpy arrays of identical length; side tables
    resolve interned ids back to strings / scripts.  The per-session hash
    lists are a CSR :class:`HashIdColumn` (``hash_ids``) — row indexing
    still yields tuples.  Row-shaped access is available through
    :meth:`record` and iteration, but analyses should use the columns.
    """

    def __init__(
        self,
        start_time: np.ndarray,
        duration: np.ndarray,
        honeypot: np.ndarray,
        protocol: np.ndarray,
        client_ip: np.ndarray,
        client_asn: np.ndarray,
        client_country: np.ndarray,
        n_attempts: np.ndarray,
        login_success: np.ndarray,
        script_id: np.ndarray,
        n_commands: np.ndarray,
        has_uri: np.ndarray,
        password_id: np.ndarray,
        username_id: np.ndarray,
        close_reason: np.ndarray,
        version_id: np.ndarray,
        hash_ids: Union[HashIdColumn, Sequence[Tuple[int, ...]]],
        honeypots: StringTable,
        countries: StringTable,
        passwords: StringTable,
        usernames: StringTable,
        hashes: StringTable,
        versions: StringTable,
        scripts: List[CommandScript],
    ):
        self.start_time = start_time
        self.duration = duration
        self.honeypot = honeypot
        self.protocol = protocol
        self.client_ip = client_ip
        self.client_asn = client_asn
        self.client_country = client_country
        self.n_attempts = n_attempts
        self.login_success = login_success
        self.script_id = script_id
        self.n_commands = n_commands
        self.has_uri = has_uri
        self.password_id = password_id
        self.username_id = username_id
        self.close_reason = close_reason
        self.version_id = version_id
        if not isinstance(hash_ids, HashIdColumn):
            hash_ids = HashIdColumn.from_lists(hash_ids)
        self.hash_ids = hash_ids
        self.honeypots = honeypots
        self.countries = countries
        self.passwords = passwords
        self.usernames = usernames
        self.hashes = hashes
        self.versions = versions
        self.scripts = scripts
        self._day: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.start_time)

    @property
    def day(self) -> np.ndarray:
        """Zero-based observation-day index of each session (cached)."""
        if self._day is None:
            self._day = (self.start_time // SECONDS_PER_DAY).astype(np.int32)
        return self._day

    @property
    def n_honeypots(self) -> int:
        return len(self.honeypots)

    @property
    def n_days(self) -> int:
        return int(self.day.max()) + 1 if len(self) else 0

    def content_digest(self) -> str:
        """sha256 of the store's persisted byte content.

        Two stores digest equal iff :func:`repro.store.npz.save_npz`
        would write the same content for both — the identity the
        backend/worker-count invariance checks compare.
        """
        from repro.store.npz import store_digest

        return store_digest(self)

    # -- merging ---------------------------------------------------------------

    @classmethod
    def merge(cls, stores: Sequence["SessionStore"]) -> "SessionStore":
        """Concatenate frozen stores into one, re-interning side-table ids.

        Rows keep their per-store order and stores are concatenated in the
        order given, so a deterministic shard order yields a deterministic
        merged store regardless of how the shards were produced.  Interned
        ids are remapped table-by-table: shared prefixes (shards forked
        from one base builder) map to themselves, new entries are appended
        in first-seen order.
        """
        builder = StoreBuilder()
        with get_metrics().span("store/merge"):
            for store in stores:
                builder.adopt_store(store)
            return builder.build()

    # -- row access ------------------------------------------------------------

    def record(self, index: int) -> SessionRecord:
        """Materialise row ``index`` as a :class:`SessionRecord`."""
        script_id = int(self.script_id[index])
        commands: Tuple[str, ...] = ()
        uris: Tuple[str, ...] = ()
        if script_id >= 0:
            script = self.scripts[script_id]
            commands, uris = script.commands, script.uris
        password_id = int(self.password_id[index])
        username_id = int(self.username_id[index])
        version_id = int(self.version_id[index])
        return SessionRecord(
            start_time=float(self.start_time[index]),
            duration=float(self.duration[index]),
            honeypot_id=self.honeypots.value_of(int(self.honeypot[index])),
            protocol=_PROTOCOL_NAMES[int(self.protocol[index])],
            client_ip=int(self.client_ip[index]),
            client_asn=int(self.client_asn[index]),
            client_country=self.countries.value_of(int(self.client_country[index])),
            n_login_attempts=int(self.n_attempts[index]),
            login_success=bool(self.login_success[index]),
            username=self.usernames.value_of(username_id) if username_id >= 0 else "",
            password=self.passwords.value_of(password_id) if password_id >= 0 else "",
            commands=commands,
            uris=uris,
            file_hashes=tuple(
                self.hashes.value_of(h) for h in self.hash_ids[index]
            ),
            close_reason=_CLOSE_REASONS[int(self.close_reason[index])],
            client_version=(
                self.versions.value_of(version_id) if version_id >= 0 else ""
            ),
        )

    def __iter__(self) -> Iterator[SessionRecord]:
        for i in range(len(self)):
            yield self.record(i)

    # -- convenience -------------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "SessionStore":
        """A new store containing only the sessions where ``mask`` is True.

        Side tables (interned strings, scripts) are shared with the parent
        store, so ids remain comparable across the two stores.
        """
        if len(mask) != len(self):
            raise ValueError("mask length must match store length")
        idx = np.nonzero(mask)[0]
        return SessionStore(
            start_time=self.start_time[idx],
            duration=self.duration[idx],
            honeypot=self.honeypot[idx],
            protocol=self.protocol[idx],
            client_ip=self.client_ip[idx],
            client_asn=self.client_asn[idx],
            client_country=self.client_country[idx],
            n_attempts=self.n_attempts[idx],
            login_success=self.login_success[idx],
            script_id=self.script_id[idx],
            n_commands=self.n_commands[idx],
            has_uri=self.has_uri[idx],
            password_id=self.password_id[idx],
            username_id=self.username_id[idx],
            close_reason=self.close_reason[idx],
            version_id=self.version_id[idx],
            hash_ids=self.hash_ids.take(idx),
            honeypots=self.honeypots,
            countries=self.countries,
            passwords=self.passwords,
            usernames=self.usernames,
            hashes=self.hashes,
            versions=self.versions,
            scripts=self.scripts,
        )

    @property
    def is_ssh(self) -> np.ndarray:
        return self.protocol == PROTOCOL_SSH

    @property
    def is_telnet(self) -> np.ndarray:
        return self.protocol == PROTOCOL_TELNET
