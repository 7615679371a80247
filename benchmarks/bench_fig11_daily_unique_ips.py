"""Figure 11: number of unique client IPs per day per category."""

from common import heading, print_series

from repro.core.clients import daily_unique_ips


def test_fig11(store):
    daily = daily_unique_ips(store)
    heading("Figure 11 — daily unique client IPs per category",
            "scanning IPs jump after ~2 months (discovery); NO_CRED > "
            "FAIL_LOG ~ CMD >> NO_CMD > CMD_URI; NO_CMD rises after Dec 2022")
    for cat, series in daily.items():
        print_series(f"  {cat}", series, points=6)

    scan = daily["NO_CRED"]
    assert scan[220:280].mean() > scan[5:45].mean()  # discovery ramp
    assert daily["NO_CRED"].mean() > daily["FAIL_LOG"].mean()
    assert daily["FAIL_LOG"].mean() > daily["CMD_URI"].mean()
    no_cmd = daily["NO_CMD"]
    assert no_cmd[400:].mean() > no_cmd[200:300].mean()  # late rise
