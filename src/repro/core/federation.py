"""Federated honeyfarms (paper Section 9, "Federated Honeyfarms").

The paper argues that independently operated honeyfarms should share data:
even the best honeypots see only a small fraction of the farm's hashes, so
federation should improve both visibility (union coverage) and detection
latency (earliest sighting).  This module quantifies that argument on a
trace: split the farm into ``k`` independent sub-farms and compare each
sub-farm's hash coverage and first-sighting times against the federation
of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.hashes import HashOccurrences
from repro.simulation.rng import RngStream


@dataclass
class SubFarmStats:
    """Visibility of one sub-farm."""

    honeypots: np.ndarray  # honeypot indices in this sub-farm
    n_hashes: int  # unique hashes this sub-farm observes
    coverage: float  # fraction of all farm hashes observed
    mean_detection_lag: float  # mean days behind the federation's first sighting


@dataclass
class FederationReport:
    sub_farms: List[SubFarmStats]
    n_hashes_total: int

    @property
    def best_coverage(self) -> float:
        if not self.sub_farms:
            return 0.0
        return max(s.coverage for s in self.sub_farms)

    @property
    def federation_gain(self) -> float:
        """Union coverage (=1.0) over the best single sub-farm's coverage."""
        best = self.best_coverage
        return 1.0 / best if best > 0 else float("inf")


def split_farm(
    n_honeypots: int, k: int, rng: Optional[RngStream] = None
) -> List[np.ndarray]:
    """Partition honeypot indices into ``k`` (roughly equal) sub-farms."""
    if k < 1:
        raise ValueError("need at least one sub-farm")
    indices = np.arange(n_honeypots)
    if rng is not None:
        indices = np.asarray(rng.shuffled(list(indices)))
    return [np.sort(part) for part in np.array_split(indices, k)]


def federation_report(
    occ: HashOccurrences, k: int = 4, rng: Optional[RngStream] = None
) -> FederationReport:
    """Compare ``k`` independent sub-farms against their federation."""
    store = occ.store
    parts = split_farm(store.n_honeypots, k, rng)
    n_total = occ.n_hashes
    if len(occ) == 0:
        return FederationReport(sub_farms=[], n_hashes_total=0)

    pots = store.honeypot[occ.session_idx]
    days = store.day[occ.session_idx]

    # Federation-wide first sighting per hash.
    n_hash_ids = len(store.hashes)
    fed_first = np.full(n_hash_ids, np.iinfo(np.int32).max, dtype=np.int64)
    np.minimum.at(fed_first, occ.hash_id, days)

    sub_farms: List[SubFarmStats] = []
    for part in parts:
        member = np.isin(pots, part)
        sub_hashes = occ.hash_id[member]
        sub_days = days[member]
        unique_hashes = np.unique(sub_hashes)
        # Sub-farm first sighting per hash it observes.
        sub_first = np.full(n_hash_ids, np.iinfo(np.int32).max, dtype=np.int64)
        np.minimum.at(sub_first, sub_hashes, sub_days)
        lags = sub_first[unique_hashes] - fed_first[unique_hashes]
        sub_farms.append(
            SubFarmStats(
                honeypots=part,
                n_hashes=len(unique_hashes),
                coverage=len(unique_hashes) / n_total if n_total else 0.0,
                mean_detection_lag=float(lags.mean()) if len(lags) else 0.0,
            )
        )
    return FederationReport(sub_farms=sub_farms, n_hashes_total=n_total)


def coverage_by_farm_size(
    occ: HashOccurrences,
    sizes: List[int],
    rng: RngStream,
    trials: int = 3,
) -> Dict[int, float]:
    """Mean hash coverage of a random sub-farm of each size.

    The marginal-value-of-scale curve behind the paper's conclusion that
    "to capture the tail one has to have scale and diversity".
    """
    store = occ.store
    pots = store.honeypot[occ.session_idx]
    n_total = occ.n_hashes
    out: Dict[int, float] = {}
    for size in sizes:
        size = min(size, store.n_honeypots)
        coverages = []
        for _ in range(trials):
            chosen = np.asarray(
                rng.sample(list(range(store.n_honeypots)), size)
            )
            member = np.isin(pots, chosen)
            coverages.append(
                len(np.unique(occ.hash_id[member])) / n_total if n_total else 0.0
            )
        out[size] = float(np.mean(coverages))
    return out
