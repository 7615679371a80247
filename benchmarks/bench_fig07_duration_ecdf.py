"""Figure 7: ECDF of session duration by category."""

from common import echo, heading, print_ecdf

from repro.core.durations import duration_ecdfs


def test_fig07(store):
    report = duration_ecdfs(store)
    heading("Figure 7 — session-duration ECDFs",
            "durations grow with interaction depth; >90% of NO_CMD end at "
            "the 3-minute timeout; some CMD+URI cross 3 minutes")
    xs = (5, 30, 60, 120, 180, 300)
    for cat in ("NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD_URI"):
        print_ecdf(f"  {cat}", report.ecdfs[cat], xs)
    echo(f"  NO_CMD sessions at idle timeout: "
          f"{report.timeout_share('NO_CMD'):.1%} (paper >90%)")
    assert report.timeout_share("NO_CMD") > 0.85
    assert report.median("NO_CRED") < report.median("CMD")
    assert report.ecdfs["CMD_URI"].survival(180.0) > 0.02
