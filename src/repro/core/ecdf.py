"""Empirical cumulative distribution functions.

The paper reports several ECDFs (session durations, pots-per-client,
days-per-client, campaign lengths).  :class:`Ecdf` wraps a sorted sample
with evaluation, quantile and summary helpers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Ecdf:
    """Empirical CDF of a one-dimensional sample."""

    def __init__(self, values: Iterable[float]):
        data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                          dtype=float)
        self.values = np.sort(data)
        self.n = len(self.values)

    def __call__(self, x: float) -> float:
        """P(X <= x)."""
        if self.n == 0:
            return 0.0
        return float(np.searchsorted(self.values, x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """Inverse CDF (q in [0, 1])."""
        if self.n == 0:
            raise ValueError("empty ECDF has no quantiles")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        idx = min(int(np.ceil(q * self.n)) - 1, self.n - 1)
        return float(self.values[max(idx, 0)])

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def survival(self, x: float) -> float:
        """P(X > x)."""
        return 1.0 - self(x)

