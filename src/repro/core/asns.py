"""AS-level client analyses (paper Sections 5 & 7).

The paper reports per-category AS population sizes (NO_CRED clients from
14k ASes, FAIL_LOG 11.7k, CMD 10.6k, NO_CMD 8.5k, CMD+URI 1.3k) and
discloses "the number of IPs ... associated with anonymized ASes".  This
module reproduces those aggregations against the synthetic registry.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.clients import unique_as_count
from repro.core.context import DistinctTuples, StoreOrContext, as_context, as_store


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


def _distinct_per_as(asns: np.ndarray, other: np.ndarray) -> Dict[int, int]:
    """Distinct ``other`` values per origin AS (sessions without one skipped)."""
    valid = asns >= 0
    pairs = DistinctTuples(asn=(asns[valid], 32), other=(other[valid], 32))
    first, counts = pairs.groups(pairs.keys, "asn")
    return {int(a): int(c) for a, c in zip(pairs.field("asn", first), counts)}
