"""Fingerprinted on-disk cache for generated datasets.

Generation is deterministic: the same :class:`ScenarioConfig` (seed
included), draw order and store format always yield the same trace,
whichever backend and worker count ran it.
That makes a generated dataset a pure function of its inputs, and a pure
function can be memoised on disk.  This module computes a stable
fingerprint of those inputs and keys a cache directory with it; each entry
is a full dataset bundle (``store.npz`` + ``dataset.json``) written by
:mod:`repro.workload.io`.

The cache root comes from ``--cache-dir`` on the CLI or the
``REPRO_CACHE`` environment variable.  Entries are written atomically
(save to a temp dir, then rename) and loads are corruption-tolerant: an
entry that fails to load is treated as a miss, deleted, and regenerated —
never an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Optional, Union

from repro.obs import get_metrics
from repro.store.npz import _FORMAT_VERSION as STORE_FORMAT_VERSION
from repro.workload.config import ScenarioConfig
from repro.workload.dataset import HoneyfarmDataset
from repro.workload.io import load_dataset, save_dataset

PathLike = Union[str, Path]

#: Environment variable naming the default cache root.
CACHE_ENV_VAR = "REPRO_CACHE"

#: Version of the generator's draw order: which named stream draws which
#: value.  Bump it with every change that moves generated bytes for an
#: unchanged config, so entries written by older code stop matching.
#: 2: one stream per shard, whole-shard vector draws.
DRAW_ORDER_VERSION = 2


def dataset_fingerprint(config: ScenarioConfig) -> str:
    """Stable hex fingerprint of everything that determines a trace.

    Covers every config field (seed included), the draw-order version and
    the on-disk store format version.  Backend and worker count never move
    the bytes, so they stay out of the key and every run shares one entry.
    """
    payload = {
        "store_format_version": STORE_FORMAT_VERSION,
        "draw_order": DRAW_ORDER_VERSION,
        "config": dataclasses.asdict(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def resolve_cache_dir(explicit: Optional[PathLike] = None) -> Optional[Path]:
    """The cache root: an explicit path, else ``$REPRO_CACHE``, else None."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR, "").strip()
    return Path(env) if env else None


class DatasetCache:
    """A directory of fingerprint-keyed dataset bundles."""

    def __init__(self, root: PathLike):
        self.root = Path(root)

    def entry_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def load(self, fingerprint: str) -> Optional[HoneyfarmDataset]:
        """The cached dataset for ``fingerprint``, or None on a miss.

        Any failure to read an existing entry (truncated npz, bad JSON,
        schema drift) counts as a miss: the entry is deleted so the
        caller's regeneration can replace it.
        """
        metrics = get_metrics()
        directory = self.entry_dir(fingerprint)
        if not directory.is_dir():
            metrics.inc("cache.misses")
            return None
        try:
            with metrics.span("cache/load"):
                dataset = load_dataset(directory)
        except Exception:
            metrics.inc("cache.corrupt_entries")
            metrics.inc("cache.misses")
            shutil.rmtree(directory, ignore_errors=True)
            return None
        metrics.inc("cache.hits")
        metrics.inc("cache.loaded_sessions", len(dataset.store))
        return dataset

    def store(self, fingerprint: str, dataset: HoneyfarmDataset) -> Path:
        """Write ``dataset`` under ``fingerprint`` (atomic via rename)."""
        metrics = get_metrics()
        directory = self.entry_dir(fingerprint)
        staging = self.root / f".{fingerprint}.tmp"
        self.root.mkdir(parents=True, exist_ok=True)
        if staging.exists():
            shutil.rmtree(staging)
        try:
            with metrics.span("cache/save"):
                save_dataset(dataset, staging)
                if directory.exists():
                    shutil.rmtree(directory)
                staging.rename(directory)
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        metrics.inc("cache.stores")
        return directory


def as_cache(cache: Union[DatasetCache, PathLike]) -> DatasetCache:
    """Coerce a path-like or cache instance to a :class:`DatasetCache`."""
    if isinstance(cache, DatasetCache):
        return cache
    return DatasetCache(cache)
