#!/usr/bin/env python3
"""Generate abuse notifications for the networks attacking the farm.

The paper's conclusion announces plans to "jointly notify networks
participating in connections to the honeyfarm".  This example builds those
notifications from a generated trace: one report per offending AS with its
addresses, behaviours, malware hashes, and a severity triage.

Run:  python examples/abuse_notifications.py
"""

from collections import Counter

import repro
from repro.core.notify import build_abuse_reports
from repro.workload import ScenarioConfig


def main() -> None:
    config = ScenarioConfig(scale=1 / 8000, seed=33, hash_scale=0.01)
    print(f"Generating {config.total_sessions:,} sessions ...")
    dataset = repro.generate(config)

    reports = build_abuse_reports(
        dataset.store, dataset.intel, min_sessions=25, top_k_ases=40
    )
    severities = Counter(r.severity for r in reports)
    print(f"\nBuilt {len(reports)} notifications "
          f"({', '.join(f'{k}: {v}' for k, v in severities.most_common())}).")

    critical = [r for r in reports if r.severity == "critical"]
    print(f"\n=== first critical notification "
          f"(of {len(critical)}) ===")
    print(critical[0].render())

    # The dispatch queue an operator would actually work through.
    print("\n=== dispatch queue (worst first) ===")
    rank = {"critical": 0, "high": 1, "medium": 2, "low": 3}
    queue = sorted(reports, key=lambda r: (rank[r.severity], -r.n_sessions))
    for report in queue[:12]:
        print(f"  [{report.severity:>8}] AS{report.asn} ({report.country}): "
              f"{report.n_sessions:,} sessions, {len(report.ips)} IPs, "
              f"{report.n_hashes} hashes, window {report.window_start}"
              f"..{report.window_end}")


if __name__ == "__main__":
    main()
