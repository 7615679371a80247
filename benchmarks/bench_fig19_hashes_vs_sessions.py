"""Figure 19: unique hashes per honeypot vs. session counts."""

import numpy as np
from common import echo, heading

from repro.core.activity import sessions_per_honeypot
from repro.core.hashes import hashes_per_honeypot


def test_fig19(occurrences, store):
    per_pot = hashes_per_honeypot(occurrences)
    heading("Figure 19 — unique hashes per honeypot (vs sessions)",
            "the pots with the most unique hashes are not the pots with "
            "the most sessions")
    sessions = sessions_per_honeypot(store)
    top_hashes = set(np.argsort(per_pot)[::-1][:10].tolist())
    top_sessions = set(np.argsort(sessions)[::-1][:10].tolist())
    overlap = len(top_hashes & top_sessions)
    corr = np.corrcoef(per_pot.astype(float), sessions.astype(float))[0, 1]
    echo(f"  top-10 by hashes vs by sessions overlap: {overlap}/10")
    echo(f"  per-pot correlation(hashes, sessions) = {corr:.2f}")
    top10_share = per_pot[np.argsort(per_pot)[::-1][:10]].sum()
    echo(f"  top-10 pots' summed hash observations: {top10_share:,} of "
          f"{occurrences.n_hashes:,} unique hashes")
    assert overlap < 10
    assert corr < 0.9
