"""Figure 4: daily activity bands across all honeypots."""

from common import echo, heading, print_bands

from repro.core.timeseries import bands_all_honeypots, bands_top_honeypots


def test_fig04(store):
    bands = bands_all_honeypots(store)
    heading("Figure 4 — daily sessions, all honeypots",
            "median tracks the 75%/95% lines; lower percentiles smoother")
    print_bands("all pots", bands)
    top = bands_top_honeypots(store)
    echo(f"  top-5% median vs farm median: "
          f"{top.median.mean():.1f} vs {bands.median.mean():.1f} sessions/day")
    assert top.median.mean() > bands.median.mean()
    # The 5th percentile band is smoother than the 95th (fewer spikes).
    import numpy as np
    assert np.std(np.diff(bands.p5)) < np.std(np.diff(bands.p95))
