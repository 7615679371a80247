"""The paper's analyses.

Everything in this package operates on a frozen
:class:`~repro.store.store.SessionStore` (plus the geo registry and intel
database where needed) and reproduces the computations behind the paper's
tables and figures:

* `classify` — the session taxonomy (Fig 5, Table 1);
* `activity` — per-honeypot session skew (Fig 2);
* `timeseries` — daily percentile bands and category fractions
  (Figs 3, 4, 6, 8, 9);
* `durations` — session-duration ECDFs (Fig 7);
* `clients` — client-IP analyses (Figs 10-15);
* `diversity` — client/honeypot regional diversity (Figs 16, 24);
* `hashes` — file-hash / campaign analyses (Figs 18-22, Tables 4-6);
* `freshness` — fresh-hash sliding-window metrics (Fig 17);
* `tables` — Tables 1-6 builders;
* `report` — the whole-paper report orchestrator.

Every entry point accepts either a store or an
:class:`~repro.core.context.AnalysisContext`; pass one context to several
analyses to share the expensive intermediates (classification, the hash
occurrence index, per-client groupbys) instead of recomputing them.
"""

from repro.core.classify import Category, classify_store
from repro.core.context import AnalysisContext, StoreOrContext, as_context, as_store
from repro.core.ecdf import Ecdf
from repro.core.activity import sessions_per_honeypot, top_k_share, activity_knee
from repro.core import (
    activity,
    asns,
    blocking,
    campaign_detect,
    classify,
    clients,
    context,
    diversity,
    durations,
    federation,
    freshness,
    hashes,
    notify,
    tables,
    timeseries,
    versions,
)

__all__ = [
    "AnalysisContext",
    "StoreOrContext",
    "as_context",
    "as_store",
    "Category",
    "classify_store",
    "Ecdf",
    "sessions_per_honeypot",
    "top_k_share",
    "activity_knee",
    "activity",
    "asns",
    "blocking",
    "campaign_detect",
    "classify",
    "clients",
    "context",
    "diversity",
    "durations",
    "federation",
    "freshness",
    "hashes",
    "notify",
    "tables",
    "timeseries",
    "versions",
]
