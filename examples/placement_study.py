#!/usr/bin/env python3
"""Honeypot placement study: what does each vantage point actually see?

The paper's operational conclusion: visibility is wildly uneven, the pots
with most sessions are not the pots with most clients or hashes, and even
the best single honeypot observes <5% of all file hashes — diversity and
scale are what make a honeyfarm work.  This example quantifies exactly
that on a generated trace, the analysis an operator would run before
expanding a deployment.

Run:  python examples/placement_study.py
"""

import numpy as np

import repro
from repro.core import activity
from repro.core.clients import clients_per_honeypot
from repro.core.freshness import fresh_hashes_per_honeypot
from repro.core.hashes import HashOccurrences, hashes_per_honeypot
from repro.core.tables import format_table
from repro.workload import ScenarioConfig


def main() -> None:
    config = ScenarioConfig(scale=1 / 4000, seed=7, hash_scale=0.02)
    print(f"Generating {config.total_sessions:,} sessions ...")
    dataset = repro.generate(config)
    store = dataset.store

    sessions = activity.sessions_per_honeypot(store)
    clients = clients_per_honeypot(store)
    occ = HashOccurrences.build(store)
    hashes = hashes_per_honeypot(occ)
    first_seen = fresh_hashes_per_honeypot(occ)

    def top10(counts):
        return set(np.argsort(counts)[::-1][:10].tolist())

    top_sessions, top_clients, top_hashes = (
        top10(sessions), top10(clients), top10(hashes))

    print("\nTop-10 honeypots by metric (indices):")
    print(f"  sessions: {sorted(top_sessions)}")
    print(f"  clients:  {sorted(top_clients)}")
    print(f"  hashes:   {sorted(top_hashes)}")
    print(f"  sessions∩clients: {len(top_sessions & top_clients)}, "
          f"sessions∩hashes: {len(top_sessions & top_hashes)} "
          "(the paper finds these sets differ)")

    n_hashes = occ.n_hashes
    best_pot = int(np.argmax(hashes))
    print(f"\nBest single vantage point (pot {best_pot}) sees "
          f"{hashes[best_pot] / n_hashes:.1%} of all {n_hashes:,} hashes "
          "(paper: <5%) — one honeypot is never enough.")

    # Early-warning value: the pots that collect the most hashes are also
    # the ones that see new hashes first (paper Section 8.4).
    order = np.argsort(hashes)[::-1]
    rows = []
    for rank, pot in enumerate(order[:10], start=1):
        site = dataset.deployment.sites[pot]
        rows.append((
            rank, site.honeypot_id, site.country,
            int(sessions[pot]), int(clients[pot]), int(hashes[pot]),
            int(first_seen[pot]),
        ))
    print("\nTop hash-collecting honeypots (and how many hashes they saw "
          "before anyone else):")
    print(format_table(rows, ["rank", "pot", "cc", "#sessions", "#clients",
                              "#hashes", "#first-seen"]))

    share_top = first_seen[order[:10]].sum() / max(first_seen.sum(), 1)
    print(f"\nThe top-10 hash collectors are first observer for "
          f"{share_top:.1%} of all hashes — early-detection value "
          "concentrates with the collectors, not with the session magnets.")


if __name__ == "__main__":
    main()
