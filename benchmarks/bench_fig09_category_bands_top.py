"""Figure 9: per-category daily bands for the top-5% honeypots."""

from common import echo, heading, print_bands

from repro.core.timeseries import category_bands


def test_fig09(store):
    bands = category_bands(store, 0.05)
    heading("Figure 9 — per-category daily bands (top-5% honeypots)",
            "the popular pots see elevated activity in every category; "
            "CMD intense Dec 2021-Jul 2022, dip, then a rise in early 2023")
    for cat, band in bands.items():
        print_bands(f"  {cat}", band)
    cmd = bands["CMD"]
    early = cmd.p75[40:180].mean()
    dip = cmd.p75[250:330].mean()
    late = cmd.p75[420:480].mean()
    echo(f"  CMD p75 early/dip/late: {early:.2f} / {dip:.2f} / {late:.2f}")
    assert early > dip
    assert late > dip
