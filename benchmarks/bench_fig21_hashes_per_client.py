"""Figure 21: number of hashes per client IP (log-log long tail)."""

import numpy as np
from common import echo, heading

from repro.core.hashes import hashes_per_client


def test_fig21(occurrences):
    curve = hashes_per_client(occurrences)
    heading("Figure 21 — hashes per client IP",
            "long-tailed: some clients drop many distinct files (campaign "
            "overlap / families), most drop exactly one")
    idx = np.unique(np.geomspace(1, len(curve), 8).astype(int)) - 1
    echo("  sorted curve: " + ", ".join(
        f"r{int(i) + 1}={curve[i]}" for i in idx))
    single = (curve == 1).mean()
    echo(f"  clients with a single hash: {single:.1%}; "
          f"max hashes for one client: {curve[0]}")
    assert curve[0] >= 3  # family members carry several variants
    assert single > 0.2
    assert (np.diff(curve.astype(np.int64)) <= 0).all()
