#!/usr/bin/env python3
"""Federated honeyfarms: quantify the value of sharing data.

The paper's discussion calls for independent honeyfarm operators to share
their collected intelligence.  This example splits the generated farm into
four independent "operators" and measures what each misses: hash coverage,
detection latency, and the marginal value of farm size.

Run:  python examples/federation_value.py
"""

import repro
from repro.core.blocking import blockable_campaigns
from repro.core.federation import coverage_by_farm_size, federation_report
from repro.core.hashes import HashOccurrences, compute_hash_stats
from repro.simulation.rng import RngStream
from repro.workload import ScenarioConfig


def main() -> None:
    config = ScenarioConfig(scale=1 / 4000, seed=21, hash_scale=0.02)
    print(f"Generating {config.total_sessions:,} sessions ...")
    dataset = repro.generate(config)
    occ = HashOccurrences.build(dataset.store)

    print(f"\nThe full farm observed {occ.n_hashes:,} unique file hashes.")
    report = federation_report(occ, k=4, rng=RngStream(1, "fed"))
    print("\nSplit into 4 independent operators:")
    for i, sub in enumerate(report.sub_farms, start=1):
        print(f"  operator {i}: {len(sub.honeypots)} pots -> "
              f"{sub.coverage:.1%} hash coverage, "
              f"detection lags the federation by "
              f"{sub.mean_detection_lag:.1f} days on average")
    print(f"\nFederating quadruples nobody's cost but lifts the best "
          f"operator's visibility {report.federation_gain:.2f}x "
          "(to 100% of the union).")

    print("\nMarginal value of scale (mean hash coverage of a random farm):")
    curve = coverage_by_farm_size(occ, [1, 5, 20, 55, 110, 221],
                                  RngStream(2, "curve"))
    for size, coverage in sorted(curve.items()):
        bar = "#" * int(coverage * 40)
        print(f"  {size:>3} pots  {coverage:6.1%}  {bar}")

    # Shared intelligence also exposes the blockable long-lived campaigns
    # that any single operator might dismiss as noise.
    stats = compute_hash_stats(occ)
    blockable = blockable_campaigns(stats, dataset.store, dataset.intel,
                                    max_ips=5, min_days=60)
    print(f"\nFederation-visible blockable campaigns (<=5 IPs, >=60 days): "
          f"{len(blockable)} — each would vanish if anyone blocked a "
          "handful of addresses.")


if __name__ == "__main__":
    main()
