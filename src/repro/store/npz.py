"""Fast columnar persistence for :class:`SessionStore` (numpy .npz).

JSONL (``repro.store.io``) is the interchange format; this module is the
fast path for saving/reloading large generated traces.  A store file is a
zip of ``.npy`` members (format version 2), written one column at a time
at zlib level 1:

* every integer column is narrowed to the smallest integer dtype that
  holds its [min, max] (the ``.npy`` header records that dtype);
* the float columns (``start_time`` f8, ``duration`` f4) are byte-shuffled
  into a ``uint8`` matrix of shape ``(itemsize, n)``, so the slowly varying
  high bytes of neighbouring rows sit together for the compressor;
* the CSR hash column is stored as values plus per-row lengths;
* the six string tables and the interned scripts are one UTF-8 JSON
  member of dtype ``uint8``.

Nothing is pickled, and :func:`load_npz` reads with ``allow_pickle=False``.
It widens every column back to its in-memory dtype, so round trips are
exact.  A malformed file (older version, unknown or object-dtype member,
truncation, ragged columns) raises :class:`ValueError`.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from pathlib import Path
from typing import Iterator, Tuple, Union

import numpy as np

from repro.obs import get_metrics, stopwatch
from repro.obs.atomic import staged_file
from repro.store.interning import StringTable
from repro.store.records import STORE_COLUMN_DTYPES, CommandScript
from repro.store.store import HashIdColumn, SessionStore

PathLike = Union[str, Path]

_FORMAT_VERSION = 2

_NUMERIC_COLUMNS = (
    "start_time", "duration", "honeypot", "protocol", "client_ip",
    "client_asn", "client_country", "n_attempts", "login_success",
    "script_id", "n_commands", "has_uri", "password_id", "username_id",
    "close_reason", "version_id",
)

#: In-memory dtype of every numeric column, including the script-derived
#: ``n_commands`` / ``has_uri`` columns the builder fills at freeze.
_COLUMN_DTYPES = {
    **STORE_COLUMN_DTYPES,
    "n_commands": np.uint16,
    "has_uri": np.bool_,
}

_FLOAT_COLUMNS = ("start_time", "duration")

_TABLES = ("honeypots", "countries", "passwords", "usernames", "hashes",
           "versions")

#: Candidate on-disk integer dtypes, narrowest first.
_INT_LADDER = tuple(np.dtype(t) for t in (
    np.uint8, np.int8, np.uint16, np.int16,
    np.uint32, np.int32, np.uint64, np.int64,
))

_MEMBERS = frozenset(
    _NUMERIC_COLUMNS + ("hash_values", "hash_lengths", "strings",
                        "format_version")
)

#: Errors a truncated or corrupt zip raises while it is opened or read.
_CORRUPT_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError)


def _scripts_payload(store: SessionStore) -> list:
    return [[list(s.commands), list(s.uris)] for s in store.scripts]


def store_digest(store: SessionStore) -> str:
    """sha256 over a store's content, independent of the file format.

    Numeric columns enter as their in-memory dtype name plus raw bytes,
    the CSR hash column as int64 values and offsets, string tables and
    interned scripts as JSON, each under its name in sorted-name order.
    Two stores digest equal iff :func:`save_npz` round-trips them to the
    same content.  Backend/worker-count invariance checks compare these
    digests (``tests/test_sched.py``, the ci.sh backend matrix).
    """
    parts = {name: getattr(store, name) for name in _NUMERIC_COLUMNS}
    parts["hash_values"] = store.hash_ids.values
    parts["hash_offsets"] = store.hash_ids.offsets
    for table_name in _TABLES:
        table: StringTable = getattr(store, table_name)
        parts[f"table_{table_name}"] = json.dumps(table.values())
    parts["scripts_json"] = json.dumps([json.dumps(_scripts_payload(store))])
    # The digest's own constant, not the file version: re-encoding the
    # file must not move pinned store digests.
    parts["format_version"] = np.array([1], dtype=np.int64)

    digest = hashlib.sha256()
    for name in sorted(parts):
        value = parts[name]
        digest.update(name.encode("utf-8"))
        if isinstance(value, str):
            digest.update(value.encode("utf-8"))
        else:
            digest.update(str(value.dtype).encode("utf-8"))
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


# -- encoding ------------------------------------------------------------------


def _narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` in the narrowest integer dtype that holds its values."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    for dtype in _INT_LADDER:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max and np.can_cast(dtype, arr.dtype):
            return arr.astype(dtype, copy=False)
    return arr


def _shuffle(arr: np.ndarray) -> np.ndarray:
    """Little-endian bytes of ``arr`` as a ``(itemsize, n)`` uint8 matrix."""
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return np.ascontiguousarray(
        little.view(np.uint8).reshape(-1, arr.dtype.itemsize).T
    )


def _encoded_members(store: SessionStore) -> Iterator[Tuple[str, np.ndarray]]:
    """(member name, array) pairs, encoded lazily one column at a time."""
    yield "format_version", np.array([_FORMAT_VERSION], dtype=np.int64)
    for name in _NUMERIC_COLUMNS:
        column = getattr(store, name)
        if name in _FLOAT_COLUMNS:
            yield name, _shuffle(column)
        elif column.dtype == np.bool_:
            yield name, column
        else:
            yield name, _narrow(column)
    yield "hash_values", _narrow(store.hash_ids.values)
    yield "hash_lengths", _narrow(np.diff(store.hash_ids.offsets))
    strings = {
        "tables": {name: getattr(store, name).values() for name in _TABLES},
        "scripts": _scripts_payload(store),
    }
    yield "strings", np.frombuffer(json.dumps(strings).encode("utf-8"),
                                   dtype=np.uint8)


def save_npz(store: SessionStore, path: PathLike) -> None:
    """Save a store to exactly ``path`` (.npz, format 2), atomically."""
    watch = stopwatch()
    path = Path(path)
    with get_metrics().span("store/save_npz"), staged_file(path) as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED,
                            compresslevel=1) as zf:
        for name, arr in _encoded_members(store):
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, arr, allow_pickle=False)
    metrics = get_metrics()
    metrics.inc("store.npz_saves")
    metrics.inc("store.npz_saved_sessions", len(store))
    elapsed = watch.elapsed()
    metrics.observe("store.npz_save_seconds", elapsed)
    if elapsed > 0:
        metrics.gauge_set(
            "store.npz_save_bytes_per_second",
            path.stat().st_size / elapsed,
        )


# -- decoding ------------------------------------------------------------------


def _read(data, path: Path, name: str) -> np.ndarray:
    try:
        return data[name]
    except _CORRUPT_ERRORS as exc:
        raise ValueError(
            f"{path}: truncated or corrupt store file ({exc})"
        ) from exc
    except ValueError as exc:  # object dtype under allow_pickle=False
        raise ValueError(f"{path}: member {name!r} is unreadable ({exc})") from exc


def _check_rows(path: Path, name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.shape != shape:
        raise ValueError(
            f"{path}: member {name!r} has shape {arr.shape}, expected {shape}"
        )


def _widen(path: Path, name: str, arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` as ``dtype``, refusing any dtype the writer cannot produce."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        ok = arr.dtype == np.bool_
    else:
        ok = arr.dtype.kind in "iu" and np.can_cast(arr.dtype, dtype)
    if not ok:
        raise ValueError(
            f"{path}: member {name!r} has dtype {arr.dtype}, "
            f"which does not widen to {dtype}"
        )
    return arr.astype(dtype, copy=False)


def _unshuffle(path: Path, name: str, arr: np.ndarray, n: int,
               dtype) -> np.ndarray:
    dtype = np.dtype(dtype)
    if arr.dtype != np.uint8:
        raise ValueError(f"{path}: member {name!r} is not byte-shuffled uint8")
    _check_rows(path, name, arr, (dtype.itemsize, n))
    little = np.ascontiguousarray(arr.T).view(dtype.newbyteorder("<"))
    return little.reshape(n).astype(dtype, copy=False)


def _open_npz(path: Path):
    try:
        data = np.load(path, allow_pickle=False)
    except _CORRUPT_ERRORS + (ValueError,) as exc:
        raise ValueError(
            f"{path}: not a readable store file ({exc})"
        ) from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: a bare .npy array, not a store file")
    return data


def _decode(path: Path, data) -> SessionStore:
    """The store in an open format-2 file, every member checked."""
    if "format_version" not in data.files:
        raise ValueError(f"{path}: no format_version member; not a store file")
    version = int(_read(data, path, "format_version")[0])
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: store format version {version} is not readable "
            f"(this code reads version {_FORMAT_VERSION}); "
            f"regenerate the file"
        )
    members = set(data.files)
    if members != _MEMBERS:
        raise ValueError(
            f"{path}: unexpected members {sorted(members - _MEMBERS)}, "
            f"missing members {sorted(_MEMBERS - members)}"
        )
    arrays = {name: _read(data, path, name) for name in sorted(_MEMBERS)}

    n = arrays["start_time"].shape[-1]
    columns = {}
    for name in _NUMERIC_COLUMNS:
        if name in _FLOAT_COLUMNS:
            columns[name] = _unshuffle(path, name, arrays[name], n,
                                       _COLUMN_DTYPES[name])
        else:
            _check_rows(path, name, arrays[name], (n,))
            columns[name] = _widen(path, name, arrays[name],
                                   _COLUMN_DTYPES[name])

    values = _widen(path, "hash_values", arrays["hash_values"], np.int64)
    lengths = arrays["hash_lengths"]
    _check_rows(path, "hash_lengths", lengths, (n,))
    if lengths.dtype.kind != "u":
        raise ValueError(f"{path}: hash_lengths must be unsigned")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    _check_rows(path, "hash_values", values, (int(offsets[-1]),))

    raw = arrays["strings"]
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise ValueError(f"{path}: member 'strings' is not uint8 JSON")
    strings = json.loads(raw.tobytes().decode("utf-8"))
    return SessionStore(
        hash_ids=HashIdColumn(values, offsets),
        scripts=[
            CommandScript(commands=tuple(commands), uris=tuple(uris))
            for commands, uris in strings["scripts"]
        ],
        **columns,
        **{name: StringTable(strings["tables"][name]) for name in _TABLES},
    )


def load_npz(path: PathLike) -> SessionStore:
    """Load a store saved by :func:`save_npz`.

    Raises :class:`ValueError` for anything but a complete format-2 file.
    """
    watch = stopwatch()
    path = Path(path)
    with get_metrics().span("store/load_npz"), _open_npz(path) as data:
        store = _decode(path, data)
    metrics = get_metrics()
    metrics.inc("store.npz_loads")
    metrics.inc("store.npz_loaded_sessions", len(store))
    elapsed = watch.elapsed()
    metrics.observe("store.npz_load_seconds", elapsed)
    if elapsed > 0:
        metrics.gauge_set(
            "store.npz_load_bytes_per_second",
            path.stat().st_size / elapsed,
        )
    return store
