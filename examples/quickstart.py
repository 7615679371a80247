#!/usr/bin/env python3
"""Quickstart: generate a scaled honeyfarm trace and reproduce Table 1.

Generates a 15-month synthetic trace (scaled down from the paper's 402M
sessions), classifies every session into the paper's taxonomy, and prints
the headline paper-vs-measured comparison.

Run:  python examples/quickstart.py [--scale 4000]
(--scale N means 1/N of the paper's session volume; default 4000 ~ 100k
sessions, a few seconds.)
"""

import argparse

import repro
from repro.core.report import print_summary
from repro.core.tables import format_table, table1_categories, table2_passwords
from repro.workload import ScenarioConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=4000,
                        help="downscale factor vs the paper's 402M sessions")
    parser.add_argument("--seed", type=int, default=2023)
    args = parser.parse_args()

    config = ScenarioConfig(scale=1.0 / args.scale, seed=args.seed,
                            hash_scale=min(0.08, 80.0 / args.scale))
    print(f"Generating {config.total_sessions:,} sessions "
          f"across {config.n_honeypots} honeypots / {config.n_days} days ...")
    dataset = repro.generate(config)
    print(f"Done: {dataset.n_sessions:,} sessions, "
          f"{len(dataset.store.hashes):,} unique file hashes, "
          f"{len(dataset.campaigns):,} campaigns.\n")

    t1 = table1_categories(dataset.store)
    rows = [
        (cat, f"{share:.2%}", f"{t1.ssh_share_of_category[cat]:.2%}")
        for cat, share in t1.overall.items()
    ]
    print("Table 1 — session categories (measured):")
    print(format_table(rows, ["category", "% of sessions", "SSH share"]))
    print()

    print("Table 2 — top successful passwords (measured):")
    print(format_table(table2_passwords(dataset.store),
                       ["password", "logins"]))
    print()

    print(print_summary(dataset))


if __name__ == "__main__":
    main()
