"""SSH client-version analysis.

The honeypot records the client's SSH version string when one is offered
during the handshake (Section 4).  Related work (Ghiëtte et al., RAID'19)
fingerprints attack tooling from exactly these strings; this module
provides the farm-side counterpart: version popularity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.context import StoreOrContext, as_store


def version_counts(
    store: StoreOrContext, mask: Optional[np.ndarray] = None
) -> List[Tuple[str, int]]:
    """(version, session count) sorted by popularity, ties by version."""
    store = as_store(store)
    versions = store.version_id if mask is None else store.version_id[mask]
    versions = versions[versions >= 0]
    counts = np.bincount(versions, minlength=len(store.versions))
    rows = [(store.versions.value_of(int(i)), int(counts[i]))
            for i in np.flatnonzero(counts)]
    return sorted(rows, key=lambda row: (-row[1], row[0]))
