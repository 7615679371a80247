"""Client-IP analyses (paper Section 7, Figures 10-15).

All computations are vectorised over the columnar store: unique-IP
population sizes, per-country distributions (overall and per category),
daily unique-IP series, pots-per-client and days-per-client ECDFs,
clients-per-honeypot curves, and the daily category-combination counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.context import AnalysisContext, DistinctTuples, StoreOrContext
from repro.core.context import as_context, as_store
from repro.core.ecdf import Ecdf


def _per_client(table: DistinctTuples, field: str,
                category: Optional[int] = None) -> np.ndarray:
    """Distinct ``field`` values per client, in client-IP order."""
    return table.groups(table.distinct(field, category), "client")[1]


def _per_client_ecdfs(table: DistinctTuples, field: str) -> Dict[str, Ecdf]:
    """ECDFs of :func:`_per_client`, overall ("ALL") and per category."""
    names = [("ALL", None)] + [(cat.value, i) for i, cat in enumerate(CATEGORIES)]
    return {name: Ecdf(_per_client(table, field, i)) for name, i in names}


def _clients_per(table: DistinctTuples, field: str, n: int,
                 category: Optional[int] = None) -> np.ndarray:
    """Distinct clients per ``field`` value ``0 .. n - 1``."""
    return np.bincount(table.field(field, table.distinct(field, category)),
                       minlength=n)


def unique_clients(store: StoreOrContext, mask: Optional[np.ndarray] = None) -> np.ndarray:
    ctx = as_context(store)
    table = ctx.client_pots(mask)
    return ctx.client_table.ips[table.field("client", table.distinct("client"))]


def unique_client_count(store: StoreOrContext, mask: Optional[np.ndarray] = None) -> int:
    return len(unique_clients(store, mask))


def unique_as_count(store: StoreOrContext, mask: Optional[np.ndarray] = None) -> int:
    store = as_store(store)
    asns = store.client_asn if mask is None else store.client_asn[mask]
    return len(np.unique(asns[asns >= 0]))


def _by_country(ctx: AnalysisContext, table: DistinctTuples,
                category: Optional[int] = None) -> Dict[str, int]:
    client = table.field("client", table.distinct("client", category))
    counts = np.bincount(ctx.client_table.country[client],
                         minlength=len(ctx.store.countries))
    return {ctx.store.countries.value_of(i): int(c)
            for i, c in enumerate(counts) if c > 0}


def clients_per_country(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> Dict[str, int]:
    """Unique client IPs per country (Figure 10 / 23).

    An IP has a single country by construction (its first session's).
    """
    ctx = as_context(store)
    return _by_country(ctx, ctx.client_pots(mask))


def clients_per_country_by_category(store: StoreOrContext) -> Dict[str, Dict[str, int]]:
    """Figure 23: per-category country distribution of client IPs."""
    ctx = as_context(store)
    return {cat.value: _by_country(ctx, ctx.client_pots(), i)
            for i, cat in enumerate(CATEGORIES)}


def daily_unique_ips(store: StoreOrContext) -> Dict[str, np.ndarray]:
    """Figure 11: unique client IPs per day per category."""
    ctx = as_context(store)
    table = ctx.client_days()
    return {cat.value: _clients_per(table, "day", ctx.store.n_days, i)
            for i, cat in enumerate(CATEGORIES)}


def honeypots_per_client(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Distinct honeypots contacted per client IP (Figure 12 sample)."""
    return _per_client(as_context(store).client_pots(mask), "pot")


def honeypots_per_client_ecdfs(store: StoreOrContext) -> Dict[str, Ecdf]:
    """Figure 12: ECDF of pots contacted per client, overall + per category."""
    return _per_client_ecdfs(as_context(store).client_pots(), "pot")


def days_per_client(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Distinct active days per client IP (Figure 13 sample)."""
    return _per_client(as_context(store).client_days(mask), "day")


def days_per_client_ecdfs(store: StoreOrContext) -> Dict[str, Ecdf]:
    """Figure 13: ECDF of active days per client, overall + per category."""
    return _per_client_ecdfs(as_context(store).client_days(), "day")


def clients_per_honeypot(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Unique client IPs per honeypot (Figure 14)."""
    ctx = as_context(store)
    return _clients_per(ctx.client_pots(mask), "pot", ctx.store.n_honeypots)


@dataclass
class ClientsPerHoneypot:
    """Figure 14's curves: clients per pot, overall and per category."""

    overall: np.ndarray
    per_category: Dict[str, np.ndarray]
    sessions: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """Honeypot indices sorted by overall client count, descending."""
        return np.argsort(self.overall)[::-1]


def clients_per_honeypot_report(store: StoreOrContext) -> ClientsPerHoneypot:
    ctx = as_context(store)
    store, table = ctx.store, ctx.client_pots()
    return ClientsPerHoneypot(
        overall=_clients_per(table, "pot", store.n_honeypots),
        per_category={cat.value: _clients_per(table, "pot", store.n_honeypots, i)
                      for i, cat in enumerate(CATEGORIES)},
        sessions=np.bincount(store.honeypot, minlength=store.n_honeypots),
    )


def multi_category_share(store: StoreOrContext) -> float:
    """Fraction of client IPs appearing in more than one category."""
    table = as_context(store).client_pots()
    if not len(table.keys):
        return 0.0
    bits = np.left_shift(1, table.field("category", table.keys))
    seen = np.bitwise_or.reduceat(bits, table.runs(table.keys, "client"))
    return float((seen & (seen - 1) != 0).mean())


#: The category combinations Figure 15 tracks (over NO_CRED/FAIL_LOG/CMD).
FIG15_COMBOS = [
    ("NO_CRED",), ("FAIL_LOG",), ("CMD",),
    ("NO_CRED", "FAIL_LOG"), ("NO_CRED", "CMD"), ("FAIL_LOG", "CMD"),
    ("NO_CRED", "FAIL_LOG", "CMD"),
]


def daily_category_combinations(store: StoreOrContext) -> Dict[Tuple[str, ...], np.ndarray]:
    """Figure 15: clients per category-combination per day.

    For each day, clients are assigned the exact set of categories (among
    NO_CRED, FAIL_LOG, CMD) they participated in that day.
    """
    ctx = as_context(store)
    table = ctx.client_days()
    tracked = {"NO_CRED": 1, "FAIL_LOG": 2, "CMD": 4}
    bit_of = np.array([tracked.get(cat.value, 0) for cat in CATEGORIES])
    bits = bit_of[table.field("category", table.keys)]
    keys, bits = table.keys[bits > 0], bits[bits > 0]
    starts = table.runs(keys, "day")
    combo = np.bitwise_or.reduceat(bits, starts) if len(keys) else bits
    day = table.field("day", keys[starts])
    return {names: np.bincount(day[combo == sum(tracked[c] for c in names)],
                               minlength=ctx.store.n_days)
            for names in FIG15_COMBOS}


def clients_overall_summary(store: StoreOrContext) -> Dict[str, float]:
    """Headline client numbers from Section 7."""
    ctx = as_context(store)
    store = ctx.store
    total = unique_client_count(ctx)
    pots_counts = ctx.pots_per_client
    days_counts = ctx.days_per_client
    n_pots = store.n_honeypots
    return {
        "unique_ips": total,
        "unique_ases": unique_as_count(store),
        "share_single_pot": float((pots_counts == 1).mean()) if total else 0.0,
        "share_over_10_pots": float((pots_counts > 10).mean()) if total else 0.0,
        "share_over_half_pots": (
            float((pots_counts > n_pots / 2).mean()) if total else 0.0
        ),
        "share_single_day": float((days_counts == 1).mean()) if total else 0.0,
        "multi_category_share": multi_category_share(ctx),
    }
