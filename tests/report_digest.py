"""Canonical form and sha256 of what ``repro report`` + ``validate`` produce.

``canonical`` turns a report artifact (dataclasses, plain objects, numpy
arrays and scalars, enum- and tuple-keyed dicts) into plain JSON values:
objects become ``{"__class__": name, field: value, ...}``, arrays nested
lists, dict items are sorted by their canonical key.  Floats keep their
exact ``repr``, so two artifacts canonicalise equal only if every number
is bit-for-bit the same.

``report_sections`` is the whole user-visible output of one dataset:
every ``full_report`` artifact, the ``print_summary`` text and every
``validate`` check.  ``report_digest`` hashes it.  The golden-digest tests,
the metamorphic tests and the CI smoke all compare through these;
``take_rows``, ``split_and_merge`` and ``reintern_rows`` build the
re-ordered stores they compare against.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Dict

import numpy as np

from repro.core.report import full_report, print_summary
from repro.store.records import STORE_COLUMN_DTYPES
from repro.store.store import SessionStore, StoreBuilder
from repro.workload.validation import validate


def canonical(obj):
    """Plain-JSON form of a report artifact (see the module docstring)."""
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        items = [(json.dumps(canonical(k)), canonical(v)) for k, v in obj.items()]
        return sorted(items, key=lambda item: item[0])
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(canonical(v)) for v in obj)
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    else:
        fields = dict(vars(obj))
    out = {"__class__": type(obj).__name__}
    out.update((name, canonical(value)) for name, value in sorted(fields.items()))
    return out


def report_sections(dataset) -> Dict[str, object]:
    """Every report artifact, the summary text and the validate checks."""
    artifacts = full_report(dataset)
    return {
        "report": {key: canonical(value) for key, value in artifacts.items()},
        "summary": print_summary(dataset, artifacts),
        "validate": [canonical(check) for check in validate(dataset).checks],
    }


def sections_digest(sections: Dict[str, object]) -> str:
    payload = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def report_digest(dataset) -> str:
    """sha256 of :func:`report_sections` for ``dataset``."""
    return sections_digest(report_sections(dataset))


def take_rows(store: SessionStore, rows: np.ndarray) -> SessionStore:
    """``store`` with its sessions in the order ``rows`` (same side tables)."""
    columns = list(STORE_COLUMN_DTYPES) + ["n_commands", "has_uri"]
    return SessionStore(
        **{name: getattr(store, name)[rows] for name in columns},
        hash_ids=store.hash_ids.take(rows),
        honeypots=store.honeypots, countries=store.countries,
        passwords=store.passwords, usernames=store.usernames,
        hashes=store.hashes, versions=store.versions, scripts=store.scripts,
    )


def split_and_merge(store: SessionStore) -> SessionStore:
    """``store`` split three ways (row ``i`` to part ``i % 3``) and merged
    back in the order 2, 0, 1: the same sessions, re-ordered."""
    part = np.arange(len(store)) % 3
    return SessionStore.merge([store.filter(part == k) for k in (2, 0, 1)])


def reintern_rows(store: SessionStore, rows: np.ndarray) -> SessionStore:
    """``store`` rebuilt record by record in the order ``rows``.

    Every side table but the honeypots is interned afresh, so its ids
    follow first appearance in the new order.  Honeypot ids stay put:
    they index the deployment's sites, so moving them would describe a
    different farm, not the same sessions re-ordered.
    """
    builder = StoreBuilder()
    for name in store.honeypots.values():
        builder.honeypots.intern(name)
    for row in rows:
        builder.append(store.record(int(row)))
    return builder.build()
