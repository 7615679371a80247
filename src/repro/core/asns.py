"""AS-level client analyses (paper Sections 5 & 7).

The paper reports per-category AS population sizes (NO_CRED clients from
14k ASes, FAIL_LOG 11.7k, CMD 10.6k, NO_CMD 8.5k, CMD+URI 1.3k) and
discloses "the number of IPs and hashes associated with anonymized ASes
and each network type".  This module reproduces those aggregations against
the synthetic registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.clients import unique_as_count
from repro.core.context import DistinctTuples, StoreOrContext, as_context, as_store
from repro.core.hashes import HashOccurrences
from repro.geo.registry import GeoRegistry, NetworkType
from repro.store.store import SessionStore


def as_counts_by_category(store: StoreOrContext) -> Dict[str, int]:
    """Unique client ASes per session category."""
    ctx = as_context(store)
    return {cat.value: unique_as_count(ctx, ctx.category_mask(i))
            for i, cat in enumerate(CATEGORIES)}


def ips_per_as(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> Dict[int, int]:
    """Unique client IPs per origin AS (anonymised AS disclosure)."""
    store = as_store(store)
    rows = slice(None) if mask is None else mask
    return _distinct_per_as(store.client_asn[rows], store.client_ip[rows])


def hashes_per_as(occ: HashOccurrences) -> Dict[int, int]:
    """Unique file hashes produced from each origin AS."""
    return _distinct_per_as(occ.store.client_asn[occ.session_idx], occ.hash_id)


def _distinct_per_as(asns: np.ndarray, other: np.ndarray) -> Dict[int, int]:
    """Distinct ``other`` values per origin AS (sessions without one skipped)."""
    valid = asns >= 0
    pairs = DistinctTuples(asn=(asns[valid], 32), other=(other[valid], 32))
    first, counts = pairs.groups(pairs.keys, "asn")
    return {int(a): int(c) for a, c in zip(pairs.field("asn", first), counts)}


@dataclass
class NetworkTypeBreakdown:
    """Client IPs and sessions per network type."""

    ips: Dict[str, int]
    sessions: Dict[str, int]

    def ip_share(self, network_type: NetworkType) -> float:
        total = sum(self.ips.values())
        if total == 0:
            return 0.0
        return self.ips.get(network_type.value, 0) / total


def network_type_breakdown(
    store: SessionStore, registry: GeoRegistry
) -> NetworkTypeBreakdown:
    """Aggregate client activity by the origin AS's network type."""
    type_of_asn: Dict[int, str] = {
        record.asn: record.network_type.value for record in registry.records()
    }
    sessions: Dict[str, int] = {}
    seen_pairs = set()
    ips: Dict[str, int] = {}
    asn_col = store.client_asn
    ip_col = store.client_ip
    for i in range(len(store)):
        ntype = type_of_asn.get(int(asn_col[i]))
        if ntype is None:
            continue
        sessions[ntype] = sessions.get(ntype, 0) + 1
        pair = (int(asn_col[i]), int(ip_col[i]))
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            ips[ntype] = ips.get(ntype, 0) + 1
    return NetworkTypeBreakdown(ips=ips, sessions=sessions)


def top_ases(
    store: StoreOrContext, k: int = 10, mask: Optional[np.ndarray] = None
) -> List[Tuple[int, int]]:
    """(asn, unique client IPs) for the busiest origin ASes."""
    per_as = ips_per_as(store, mask)
    return sorted(per_as.items(), key=lambda kv: -kv[1])[:k]
