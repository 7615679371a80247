"""Figure 18: unique (fresh) hashes per honeypot vs. client counts."""

import numpy as np
from common import assert_claim, echo, heading

from repro.core.clients import clients_per_honeypot
from repro.core.freshness import fresh_hashes_per_honeypot
from repro.core.hashes import hashes_per_honeypot


def test_fig18(dataset, occurrences, store):
    per_pot = hashes_per_honeypot(occurrences)
    heading("Figure 18 — unique hashes per honeypot (vs clients)",
            "top-10 hash collectors see ~20x the tail; the top pot still "
            "holds <5% of all hashes; collectors != client magnets")
    order = np.argsort(per_pot)[::-1]
    idx = np.unique(np.geomspace(1, len(order), 8).astype(int)) - 1
    echo("  sorted hash curve: " + ", ".join(
        f"r{int(i) + 1}={per_pot[order[i]]}" for i in idx))

    clients = clients_per_honeypot(store)
    top_hashes = set(order[:10].tolist())
    top_clients = set(np.argsort(clients)[::-1][:10].tolist())
    echo(f"  top-10 by hashes vs by clients overlap: "
          f"{len(top_hashes & top_clients)}/10")

    fresh = fresh_hashes_per_honeypot(occurrences)
    top_fresh = set(np.argsort(fresh)[::-1][:10].tolist())
    echo(f"  top-10 by hashes vs by first-seen overlap: "
          f"{len(top_hashes & top_fresh)}/10 (paper: nearly identical)")
    assert_claim(dataset, "top pot hash share")
    assert len(top_hashes & top_fresh) >= 4
    head = per_pot[order[:10]].mean()
    tail = per_pot[order[-50:]].mean()
    assert head > 3 * tail
