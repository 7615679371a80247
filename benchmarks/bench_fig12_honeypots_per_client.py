"""Figure 12: ECDF of honeypots contacted per client IP, by category."""

from common import assert_claim, echo, heading, print_ecdf

from repro.core.clients import honeypots_per_client_ecdfs


def test_fig12(dataset, store):
    ecdfs = honeypots_per_client_ecdfs(store)
    heading("Figure 12 — honeypots contacted per client",
            ">40% of IPs contact a single pot; 18% contact >10; 2% contact "
            ">110; FAIL_LOG clients sweep the most pots")
    xs = (1, 2, 10, 50, 110, 221)
    for cat in ("ALL", "NO_CRED", "FAIL_LOG", "CMD", "CMD_URI"):
        print_ecdf(f"  {cat}", ecdfs[cat], xs)
    all_ecdf = ecdfs["ALL"]
    echo(f"  >110 pots: {all_ecdf.survival(110):.1%} (paper 2%)")
    assert_claim(dataset, "single-pot client share")
    assert_claim(dataset, ">10-pot client share")
    # Scouting clients reach more pots than scan-only clients.
    assert ecdfs["FAIL_LOG"](1) < ecdfs["NO_CRED"](1)
