"""Session classification (paper Section 6, Figure 5).

The flow diagram in Figure 5:

* no credentials offered            -> NO_CRED   (scanning)
* credentials offered, none succeed -> FAIL_LOG  (scouting)
* login succeeded, no commands      -> NO_CMD    (intrusion)
* commands, no remote resource      -> CMD       (intrusion)
* commands + URI access             -> CMD_URI   (intrusion)
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.honeypot.events import category_codes
from repro.store.store import SessionStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import StoreOrContext


class Category(enum.Enum):
    NO_CRED = "NO_CRED"
    FAIL_LOG = "FAIL_LOG"
    NO_CMD = "NO_CMD"
    CMD = "CMD"
    CMD_URI = "CMD_URI"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


CATEGORIES = [Category.NO_CRED, Category.FAIL_LOG, Category.NO_CMD,
              Category.CMD, Category.CMD_URI]

#: The behavioural grouping of Section 6.
BEHAVIOR_OF = {
    Category.NO_CRED: "scanning",
    Category.FAIL_LOG: "scouting",
    Category.NO_CMD: "intrusion",
    Category.CMD: "intrusion",
    Category.CMD_URI: "intrusion",
}


def classify_store(store: SessionStore) -> np.ndarray:
    """Vectorised classification: one int8 code per session.

    Codes index into :data:`CATEGORIES` (the rule is
    :func:`repro.honeypot.events.category_codes`).
    """
    return category_codes(store.n_attempts, store.login_success,
                          store.n_commands, store.has_uri)


def category_shares(store: "StoreOrContext") -> Dict[Category, float]:
    """Fraction of all sessions in each category (Table 1 top row)."""
    from repro.core.context import as_context

    codes = as_context(store).category_codes
    n = len(codes)
    if n == 0:
        return {cat: 0.0 for cat in CATEGORIES}
    return {
        cat: float((codes == i).sum()) / n for i, cat in enumerate(CATEGORIES)
    }
