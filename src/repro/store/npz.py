"""Fast columnar persistence for :class:`SessionStore` (numpy .npz).

JSONL (``repro.store.io``) is the interchange format; this module is the
fast path for saving/reloading large generated traces: all numeric columns
are stored as-is, string tables and interned scripts as object arrays, and
the variable-length per-session hash lists in CSR-style (values +
offsets) — the same shape the in-memory :class:`HashIdColumn` uses, so
save and load move whole arrays with no per-row work.  Round-trips are
exact.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

from repro.obs import get_metrics, stopwatch
from repro.store.interning import StringTable
from repro.store.records import CommandScript
from repro.store.store import HashIdColumn, SessionStore

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

_NUMERIC_COLUMNS = (
    "start_time", "duration", "honeypot", "protocol", "client_ip",
    "client_asn", "client_country", "n_attempts", "login_success",
    "script_id", "n_commands", "has_uri", "password_id", "username_id",
    "close_reason", "version_id",
)

_TABLES = ("honeypots", "countries", "passwords", "usernames", "hashes",
           "versions")


def _store_arrays(store: SessionStore) -> dict:
    """The exact arrays :func:`save_npz` persists, keyed by npz name."""
    arrays = {name: getattr(store, name) for name in _NUMERIC_COLUMNS}

    # The in-memory hash column is already CSR — persist it verbatim.
    arrays["hash_values"] = np.asarray(store.hash_ids.values, dtype=np.int64)
    arrays["hash_offsets"] = np.asarray(store.hash_ids.offsets, dtype=np.int64)

    for table_name in _TABLES:
        table: StringTable = getattr(store, table_name)
        arrays[f"table_{table_name}"] = np.array(table.values(), dtype=object)

    scripts_json = json.dumps(
        [[list(s.commands), list(s.uris)] for s in store.scripts]
    )
    arrays["scripts_json"] = np.array([scripts_json], dtype=object)
    arrays["format_version"] = np.array([_FORMAT_VERSION])
    return arrays


def store_digest(store: SessionStore) -> str:
    """sha256 over the persisted byte content of a store.

    Hashes exactly what :func:`save_npz` would write — numeric columns as
    raw bytes, string tables and interned scripts as JSON — so two stores
    digest equal iff their npz files round-trip to the same content.
    Backend/worker-count invariance checks compare these digests
    (``tests/test_sched.py``, the ci.sh backend matrix).
    """
    import hashlib

    digest = hashlib.sha256()
    arrays = _store_arrays(store)
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        digest.update(name.encode("utf-8"))
        if arr.dtype == object:  # string tables / scripts JSON
            digest.update(
                json.dumps([str(item) for item in arr]).encode("utf-8")
            )
        else:
            digest.update(str(arr.dtype).encode("utf-8"))
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@contextmanager
def staged_file(path: PathLike, mode: str = "wb") -> Iterator[IO]:
    """Open a sibling staging file that replaces ``path`` on a clean exit.

    If the block raises, the staging file is removed and whatever was at
    ``path`` before is left untouched.
    """
    path = Path(path)
    staging = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(staging, mode,
                  encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(staging, path)
    finally:
        if staging.exists():
            staging.unlink()


def save_npz(store: SessionStore, path: PathLike) -> None:
    """Save a store to exactly ``path`` (.npz), atomically."""
    watch = stopwatch()
    arrays = _store_arrays(store)
    path = Path(path)
    # Through a file object: given a path without the .npz suffix,
    # savez_compressed would append one and write elsewhere.
    with get_metrics().span("store/save_npz"), staged_file(path) as fh:
        np.savez_compressed(fh, **arrays)
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


def load_npz(path: PathLike) -> SessionStore:
    """Load a store saved by :func:`save_npz`."""
    watch = stopwatch()
    path = Path(path)
    with get_metrics().span("store/load_npz"), \
            np.load(path, allow_pickle=True) as data:
        version = int(data["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported store format version {version}")

        columns = {name: data[name] for name in _NUMERIC_COLUMNS}
        hash_ids = HashIdColumn(data["hash_values"], data["hash_offsets"])

        tables = {}
        for table_name in _TABLES:
            tables[table_name] = StringTable(
                str(s) for s in data[f"table_{table_name}"]
            )

        scripts = [
            CommandScript(commands=tuple(commands), uris=tuple(uris))
            for commands, uris in json.loads(str(data["scripts_json"][0]))
        ]

    store = SessionStore(
        hash_ids=hash_ids,
        scripts=scripts,
        **columns,
        **tables,
    )
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
