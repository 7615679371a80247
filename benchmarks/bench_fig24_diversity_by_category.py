"""Figure 24 (appendix): regional diversity per session category."""

from common import echo, heading

from repro.core.diversity import diversity_by_category


def test_fig24(store, pot_countries):
    by_cat = diversity_by_category(store, pot_countries)
    heading("Figure 24 — regional diversity per category",
            "every category is dominated by cross-continent interactions "
            "except CMD+URI, which is substantially more local")
    for cat, report in by_cat.items():
        echo(f"  {cat:<9} out-only {report.out_only_share:6.1%}  "
              f"any-out {report.any_out_share:6.1%}  "
              f"any-same-country {report.any_local_share:6.1%}")
    assert by_cat["NO_CRED"].out_only_share > 0.40
    # Scouts sweep many pots, so pure out-only days are rarer for
    # FAIL_LOG, but cross-continent involvement still dominates.
    assert by_cat["FAIL_LOG"].any_out_share > 0.60
    assert by_cat["CMD_URI"].out_only_share < by_cat["NO_CRED"].out_only_share
    assert by_cat["CMD_URI"].any_local_share > by_cat["NO_CRED"].any_local_share
