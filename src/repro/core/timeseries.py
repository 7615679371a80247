"""Daily time-series analyses (paper Figures 3, 4, 6, 8, 9).

The paper visualises per-honeypot daily session counts as percentile bands
(median, IQR, 5th-95th) across honeypots, both for all honeypots and for
the top 5% by total sessions, overall and per category; plus the stacked
category-fraction plot of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.context import StoreOrContext, as_context, as_store


@dataclass
class PercentileBands:
    """Per-day distribution of per-honeypot daily session counts."""

    days: np.ndarray  # day index
    p5: np.ndarray
    p25: np.ndarray
    median: np.ndarray
    p75: np.ndarray
    p95: np.ndarray


def daily_sessions_matrix(
    store: StoreOrContext,
    mask: Optional[np.ndarray] = None,
    n_days: Optional[int] = None,
) -> np.ndarray:
    """(n_honeypots, n_days) matrix of daily session counts."""
    store = as_store(store)
    n_days = n_days or store.n_days
    pots = store.honeypot
    days = store.day
    if mask is not None:
        pots = pots[mask]
        days = days[mask]
    flat = pots.astype(np.int64) * n_days + days
    counts = np.bincount(flat, minlength=store.n_honeypots * n_days)
    return counts.reshape(store.n_honeypots, n_days)


def percentile_bands(matrix: np.ndarray) -> PercentileBands:
    """Across-honeypot percentile bands per day of a daily-count matrix."""
    days = np.arange(matrix.shape[1])
    pct = np.percentile(matrix, [5, 25, 50, 75, 95], axis=0)
    return PercentileBands(
        days=days, p5=pct[0], p25=pct[1], median=pct[2], p75=pct[3], p95=pct[4]
    )


def top_honeypots(store: StoreOrContext, fraction: float = 0.05) -> np.ndarray:
    """Indices of the top-``fraction`` honeypots by total sessions."""
    store = as_store(store)
    counts = np.bincount(store.honeypot, minlength=store.n_honeypots)
    k = max(1, int(round(store.n_honeypots * fraction)))
    return np.argsort(counts)[::-1][:k]


def bands_all_honeypots(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> PercentileBands:
    """Figure 4 (and Figure 8 when ``mask`` selects a category)."""
    return percentile_bands(daily_sessions_matrix(store, mask))


def bands_top_honeypots(
    store: StoreOrContext, mask: Optional[np.ndarray] = None, fraction: float = 0.05
) -> PercentileBands:
    """Figure 3 (and Figure 9 when ``mask`` selects a category).

    Honeypot ranking always uses *all* sessions, as in the paper (the top
    5% set is fixed by overall popularity).
    """
    store = as_store(store)
    top = top_honeypots(store, fraction)
    matrix = daily_sessions_matrix(store, mask)
    return percentile_bands(matrix[top])


def daily_totals(store: StoreOrContext, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Farm-wide session count per day (the black line in Figs 3/6)."""
    store = as_store(store)
    days = store.day if mask is None else store.day[mask]
    return np.bincount(days, minlength=store.n_days)


def category_fractions_over_time(store: StoreOrContext) -> Dict[str, np.ndarray]:
    """Figure 6: daily fraction of sessions per category + daily totals."""
    ctx = as_context(store)
    store = ctx.store
    n_days = store.n_days
    totals = ctx.daily_totals.astype(float)
    safe_totals = np.where(totals > 0, totals, 1.0)
    out: Dict[str, np.ndarray] = {"total": totals}
    for i, cat in enumerate(CATEGORIES):
        cat_daily = np.bincount(store.day[ctx.category_mask(i)], minlength=n_days)
        out[cat.value] = cat_daily / safe_totals
    return out


def category_bands(
    store: StoreOrContext, top_fraction: Optional[float] = None
) -> Dict[str, PercentileBands]:
    """Figures 8 (all pots) / 9 (top 5% pots): bands per category."""
    ctx = as_context(store)
    store = ctx.store
    result: Dict[str, PercentileBands] = {}
    for i, cat in enumerate(CATEGORIES):
        mask = ctx.category_mask(i)
        if top_fraction is None:
            result[cat.value] = bands_all_honeypots(store, mask)
        else:
            result[cat.value] = bands_top_honeypots(store, mask, top_fraction)
    return result
