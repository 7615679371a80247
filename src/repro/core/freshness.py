"""Hash freshness over time (paper Figure 17, Section 8.3).

For each day we count the unique hashes observed and the fraction that are
*fresh*: never seen before, or not seen within the last 7 / 30 days (the
paper's sliding-window variants).  The paper finds the daily fresh share
ranges from 2% up to 60%, and grows as the memory window shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.context import DistinctTuples
from repro.core.hashes import HashOccurrences


@dataclass
class FreshnessReport:
    """Per-day unique-hash counts and fresh fractions."""

    unique_per_day: np.ndarray
    fresh_all_time: np.ndarray  # count of first-ever-seen hashes per day
    fresh_window: Dict[int, np.ndarray]  # window days -> fresh counts

    def fresh_fraction(self, window: Optional[int] = None) -> np.ndarray:
        """Daily fresh share (NaN-free: 0 where no hashes were seen)."""
        fresh = self.fresh_all_time if window is None else self.fresh_window[window]
        safe = np.where(self.unique_per_day > 0, self.unique_per_day, 1)
        return fresh / safe


def freshness_report(occ: HashOccurrences, windows=(7, 30)) -> FreshnessReport:
    n_days = occ.store.n_days
    pairs = DistinctTuples(hash=(occ.hash_id, 32),
                           day=(occ.store.day[occ.session_idx], 32))
    if len(pairs.keys) == 0:
        zero = np.zeros(n_days, dtype=np.int64)
        return FreshnessReport(zero, zero.copy(), {w: zero.copy() for w in windows})
    pair_day = pairs.field("day", pairs.keys)

    unique_per_day = np.bincount(pair_day, minlength=n_days)

    # First-ever appearance per hash: pairs are sorted by (hash, day), so a
    # hash's first pair starts each hash group.
    first_of_hash = np.zeros(len(pair_day), dtype=bool)
    first_of_hash[pairs.runs(pairs.keys, "hash")] = True
    fresh_all = np.bincount(pair_day[first_of_hash], minlength=n_days)

    # Window freshness: a (hash, day) is fresh for window w when the
    # previous sighting of the hash is more than w days back (or absent).
    prev_day = np.empty_like(pair_day)
    prev_day[first_of_hash] = -(10 ** 6)
    not_first = ~first_of_hash
    prev_day[not_first] = pair_day[np.nonzero(not_first)[0] - 1]
    gap = pair_day - prev_day

    fresh_window: Dict[int, np.ndarray] = {}
    for w in windows:
        fresh = gap > w
        fresh_window[w] = np.bincount(pair_day[fresh], minlength=n_days)
    return FreshnessReport(
        unique_per_day=unique_per_day,
        fresh_all_time=fresh_all,
        fresh_window=fresh_window,
    )


def fresh_hashes_per_honeypot(occ: HashOccurrences) -> np.ndarray:
    """First-seen (farm-wide fresh) hash count credited per honeypot.

    A hash's discovery is credited to the honeypot that recorded it in its
    earliest session; the paper finds the pots collecting the most hashes
    are typically also the earliest observers (Section 8.4).
    """
    store = occ.store
    start = store.start_time[occ.session_idx]
    order = np.lexsort((start, occ.hash_id))
    hashes_sorted = occ.hash_id[order]
    first = np.concatenate(([True], hashes_sorted[1:] != hashes_sorted[:-1]))
    first_sessions = occ.session_idx[order][first]
    pots = store.honeypot[first_sessions]
    return np.bincount(pots, minlength=store.n_honeypots)
