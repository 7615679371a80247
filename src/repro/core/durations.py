"""Session-duration analysis (paper Figure 7).

ECDFs of session duration per category, with the two timeout landmarks:
the no-login timeout and the three-minute post-login idle timeout.  The
paper's observations: durations grow with interaction depth, >90% of
NO_CMD sessions end at the idle timeout, and CMD+URI sessions can cross
the three-minute line because downloads reset the timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.classify import CATEGORIES
from repro.core.context import StoreOrContext, as_context
from repro.core.ecdf import Ecdf
from repro.workload.samplers import IDLE_TIMEOUT, NO_LOGIN_TIMEOUT


@dataclass
class DurationReport:
    """Figure 7's content, numerically."""

    ecdfs: Dict[str, Ecdf]
    no_login_timeout: float
    idle_timeout: float

    def timeout_share(self, category: str) -> float:
        """Fraction of a category's sessions lasting >= the idle timeout."""
        ecdf = self.ecdfs[category]
        if ecdf.n == 0:
            return 0.0
        return ecdf.survival(self.idle_timeout - 1e-6)

    def median(self, category: str) -> float:
        return self.ecdfs[category].median


def duration_ecdfs(store: StoreOrContext) -> DurationReport:
    """Per-category duration ECDFs."""
    ctx = as_context(store)
    store = ctx.store
    ecdfs: Dict[str, Ecdf] = {}
    for i, cat in enumerate(CATEGORIES):
        ecdfs[cat.value] = Ecdf(store.duration[ctx.category_mask(i)])
    return DurationReport(
        ecdfs=ecdfs,
        no_login_timeout=NO_LOGIN_TIMEOUT,
        idle_timeout=IDLE_TIMEOUT,
    )
