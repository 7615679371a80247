"""File-hash / attack-campaign analyses (Figures 18-22, Tables 4-6).

The honeypot records a content hash whenever a client command creates or
modifies a file; hashes act as campaign signatures.  This module builds the
per-hash statistics the paper reports: session counts, unique client IPs,
active days, honeypot coverage, and threat tags — plus the per-honeypot and
per-client long-tail views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.context import DistinctTuples
from repro.core.ecdf import Ecdf
from repro.intel.database import IntelDatabase
from repro.intel.tags import ThreatTag
from repro.store.store import SessionStore


@dataclass
class HashOccurrences:
    """Flattened (session, hash) incidence, the basis of all hash analyses."""

    session_idx: np.ndarray  # int64
    hash_id: np.ndarray  # int64
    store: SessionStore = field(repr=False)

    @classmethod
    def build(cls, store: SessionStore) -> "HashOccurrences":
        col = store.hash_ids
        values = col.values
        if not len(values):
            return cls(
                session_idx=np.zeros(0, dtype=np.int64),
                hash_id=np.zeros(0, dtype=np.int64),
                store=store,
            )
        session_of = np.repeat(
            np.arange(len(col), dtype=np.int64), col.lengths
        )
        # Dedup repeated hashes within a session while keeping rows in
        # (session order, first-seen-within-session order): unique
        # (session, hash) pairs keyed jointly, reduced to their first flat
        # position, then emitted in position order.
        base = np.int64(max(len(store.hashes), int(values.max()) + 1))
        _, first = np.unique(session_of * base + values, return_index=True)
        first.sort()
        return cls(
            session_idx=session_of[first],
            hash_id=values[first],
            store=store,
        )

    def __len__(self) -> int:
        return len(self.session_idx)

    @property
    def n_hashes(self) -> int:
        return len(np.unique(self.hash_id))


@dataclass
class HashStats:
    """Per-hash aggregates (rows of Tables 4-6)."""

    hash_id: np.ndarray
    sessions: np.ndarray
    clients: np.ndarray
    days: np.ndarray
    honeypots: np.ndarray
    first_day: np.ndarray
    last_day: np.ndarray

    def __len__(self) -> int:
        return len(self.hash_id)

    def top_by(self, column: str, k: int = 20) -> np.ndarray:
        """Indices of the top-``k`` hashes by a column, descending."""
        values = getattr(self, column)
        order = np.argsort(values, kind="stable")[::-1]
        return order[:k]


def _distinct_per(group: np.ndarray, other: np.ndarray, n: int) -> np.ndarray:
    """Distinct ``other`` values per ``group`` value ``0 .. n - 1`` (both < 2**32)."""
    pairs = DistinctTuples(group=(group, 32), other=(other, 32))
    return np.bincount(pairs.field("group", pairs.keys), minlength=n)


def compute_hash_stats(occ: HashOccurrences) -> HashStats:
    store = occ.store
    n_hashes = len(store.hashes)
    sessions = np.bincount(occ.hash_id, minlength=n_hashes)

    clients, day_counts, pot_counts = (
        _distinct_per(occ.hash_id, column[occ.session_idx], n_hashes)
        for column in (store.client_ip, store.day, store.honeypot))

    first_day = np.full(n_hashes, np.iinfo(np.int32).max, dtype=np.int64)
    np.minimum.at(first_day, occ.hash_id, store.day[occ.session_idx])
    last_day = np.zeros(n_hashes, dtype=np.int64)
    np.maximum.at(last_day, occ.hash_id, store.day[occ.session_idx])

    return HashStats(
        hash_id=np.arange(n_hashes, dtype=np.int64),
        sessions=sessions,
        clients=clients,
        days=day_counts,
        honeypots=pot_counts,
        first_day=first_day,
        last_day=last_day,
    )


def hashes_per_honeypot(occ: HashOccurrences) -> np.ndarray:
    """Unique hashes recorded per honeypot (Figures 18/19)."""
    pots = occ.store.honeypot[occ.session_idx]
    return _distinct_per(pots, occ.hash_id, occ.store.n_honeypots)


def hashes_per_client(occ: HashOccurrences) -> np.ndarray:
    """Unique hashes per client IP, descending (Figure 21 curve)."""
    pairs = DistinctTuples(ip=(occ.store.client_ip[occ.session_idx], 32),
                           hash=(occ.hash_id, 32))
    return np.sort(pairs.groups(pairs.keys, "ip")[1])[::-1]


def clients_per_hash_curve(stats: HashStats) -> np.ndarray:
    """Unique clients per hash, descending (Figure 20 curve)."""
    observed = stats.clients[stats.sessions > 0]
    return np.sort(observed)[::-1]


def pot_coverage_summary(occ: HashOccurrences, stats: HashStats) -> Dict[str, float]:
    """Section 8.4 headline numbers."""
    observed = stats.sessions > 0
    pot_counts = stats.honeypots[observed]
    n_hashes = int(observed.sum())
    per_pot = hashes_per_honeypot(occ)
    half = occ.store.n_honeypots / 2
    if n_hashes == 0:
        return {
            "n_hashes": 0, "share_single_pot": 0.0, "share_over_10_pots": 0.0,
            "count_over_half_pots": 0, "top_pot_hash_share": 0.0,
            "top10_pot_hash_share": 0.0,
        }
    top10_pots = np.argsort(per_pot)[::-1][:10]
    top10_mask = np.isin(occ.store.honeypot[occ.session_idx], top10_pots)
    top10_unique = len(np.unique(occ.hash_id[top10_mask]))
    return {
        "n_hashes": n_hashes,
        "share_single_pot": float((pot_counts == 1).mean()),
        "share_over_10_pots": float((pot_counts > 10).mean()),
        "count_over_half_pots": int((pot_counts > half).sum()),
        "top_pot_hash_share": float(per_pot.max()) / n_hashes,
        "top10_pot_hash_share": top10_unique / n_hashes,
    }


def campaign_length_ecdfs(
    stats: HashStats, store: SessionStore, intel: IntelDatabase
) -> Dict[str, Ecdf]:
    """Figure 22: ECDF of active days per hash, overall and per tag."""
    observed = np.nonzero(stats.sessions > 0)[0]
    days = stats.days[observed]
    tags = [intel.tag_of(store.hashes.value_of(int(h))) for h in observed]
    out: Dict[str, Ecdf] = {"ALL": Ecdf(days)}
    for tag in (ThreatTag.MIRAI, ThreatTag.TROJAN, ThreatTag.MALICIOUS):
        sample = [d for d, t in zip(days, tags) if t is tag]
        out[tag.value] = Ecdf(sample)
    return out


@dataclass
class HashTableRow:
    """One row of Tables 4/5/6."""

    rank: int
    hash_label: str
    sha256: str
    n_sessions: int
    n_clients: int
    n_days: int
    tag: str
    n_honeypots: int


def top_hash_table(
    stats: HashStats,
    store: SessionStore,
    intel: IntelDatabase,
    sort_by: str = "sessions",
    k: int = 20,
    labels: Optional[Dict[str, str]] = None,
) -> List[HashTableRow]:
    """Tables 4 (sessions), 5 (clients) and 6 (days)."""
    order = stats.top_by(sort_by, k)
    rows: List[HashTableRow] = []
    for rank, idx in enumerate(order, start=1):
        if stats.sessions[idx] == 0:
            continue
        sha = store.hashes.value_of(int(idx))
        label = labels.get(sha, sha[:10]) if labels else sha[:10]
        rows.append(
            HashTableRow(
                rank=rank,
                hash_label=label,
                sha256=sha,
                n_sessions=int(stats.sessions[idx]),
                n_clients=int(stats.clients[idx]),
                n_days=int(stats.days[idx]),
                tag=intel.tag_of(sha).value,
                n_honeypots=int(stats.honeypots[idx]),
            )
        )
    return rows
