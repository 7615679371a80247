"""Figure 14: number of clients per honeypot, by category."""

import numpy as np
from common import echo, heading

from repro.core.clients import clients_per_honeypot_report


def test_fig14(store):
    report = clients_per_honeypot_report(store)
    heading("Figure 14 — clients per honeypot",
            "a few pots attract far more clients; these are NOT the pots "
            "with the most sessions; scanning clients outnumber the rest")
    order = report.order
    idx = np.unique(np.geomspace(1, len(order), 8).astype(int)) - 1
    echo("  sorted clients curve: " + ", ".join(
        f"r{int(i) + 1}={report.overall[order[i]]:,}" for i in idx))
    top_clients = set(order[:10].tolist())
    top_sessions = set(np.argsort(report.sessions)[::-1][:10].tolist())
    echo(f"  top-10 by clients vs top-10 by sessions overlap: "
          f"{len(top_clients & top_sessions)}/10 (paper: sets differ)")
    scan_total = report.per_category["NO_CRED"].sum()
    cmd_total = report.per_category["CMD"].sum()
    echo(f"  scanning clients vs CMD clients (pot-sum): "
          f"{scan_total:,} vs {cmd_total:,}")
    from repro.core.clients import unique_client_count
    from repro.core.classify import classify_store
    codes = classify_store(store)
    scan_ips = unique_client_count(store, codes == 0)
    cmd_ips = unique_client_count(store, codes == 3)
    echo(f"  unique scanning IPs vs CMD IPs: {scan_ips:,} vs {cmd_ips:,} "
          "(paper: >2x)")
    assert len(top_clients & top_sessions) < 10
    # Paper: scanning involves more than twice as many clients as the
    # advanced-interaction categories.
    assert scan_ips > 2 * cmd_ips
    assert scan_total > 0.7 * cmd_total  # curves track each other per pot
    fail = report.per_category["FAIL_LOG"].astype(float)
    cmd = report.per_category["CMD"].astype(float)
    # FAIL_LOG and CMD client curves track each other (paper observation).
    assert np.corrcoef(fail, cmd)[0, 1] > 0.5
