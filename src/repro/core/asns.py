"""AS-level client analyses (paper Sections 5 & 7).

The paper reports per-category AS population sizes (NO_CRED clients from
14k ASes, FAIL_LOG 11.7k, CMD 10.6k, NO_CMD 8.5k, CMD+URI 1.3k).  This
module reproduces those counts against the synthetic registry.
"""

from __future__ import annotations

from typing import Dict

from repro.core.classify import CATEGORIES
from repro.core.clients import unique_as_count
from repro.core.context import StoreOrContext, as_context


def as_counts_by_category(store: StoreOrContext) -> Dict[str, int]:
    """Unique client ASes per session category."""
    ctx = as_context(store)
    return {cat.value: unique_as_count(ctx, ctx.category_mask(i))
            for i, cat in enumerate(CATEGORIES)}
