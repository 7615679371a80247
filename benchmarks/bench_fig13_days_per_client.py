"""Figure 13: ECDF of the number of days a client IP is observed."""

from common import assert_claim, echo, heading, print_ecdf

from repro.core.clients import days_per_client, days_per_client_ecdfs


def test_fig13(dataset, store):
    ecdfs = days_per_client_ecdfs(store)
    heading("Figure 13 — active days per client IP",
            "most IPs seen a single day; a handful active >90% of days; "
            "CMD+URI clients have the shortest presence")
    xs = (1, 2, 7, 30, 100, 400)
    for cat in ("ALL", "NO_CRED", "FAIL_LOG", "CMD", "CMD_URI"):
        print_ecdf(f"  {cat}", ecdfs[cat], xs)
    all_days = days_per_client(store)
    n_persistent = int((all_days > 0.9 * 486).sum())
    echo(f"  clients active >90% of days: {n_persistent} "
          f"(paper >100 of 2.1M)")
    assert_claim(dataset, "single-day client share")
    assert n_persistent >= 1
    assert ecdfs["CMD_URI"](1) >= ecdfs["ALL"](1) - 0.15
