"""Figure 3: daily activity bands for the top-5% honeypots."""

from common import echo, heading, print_bands

from repro.core.timeseries import bands_top_honeypots


def test_fig03(store):
    bands = bands_top_honeypots(store)
    heading("Figure 3 — daily sessions, top-5% honeypots",
            "median / IQR / 5-95% bands across the 11 most-popular pots; "
            "activity spikes (e.g. 2022-09-05) visible in the upper bands")
    print_bands("top-5% pots", bands)
    spike_day = bands.p95.argmax()
    echo(f"  largest p95 spike on day {int(spike_day)} "
          f"(paper highlights 2022-09-05 = day 278)")
    assert bands.median.mean() > 0
    assert bands.p95.max() > 3 * bands.p95.mean()  # spiky upper band
