"""Figure 8: per-category daily bands across all honeypots."""

from common import heading, print_bands

from repro.core.timeseries import category_bands


def test_fig08(store):
    bands = category_bands(store)
    heading("Figure 8 — per-category daily bands (all honeypots)",
            "NO_CRED has a constant scanning baseline; FAIL_LOG mirrors "
            "the overall shape; CMD/CMD+URI are spiky")
    for cat, band in bands.items():
        print_bands(f"  {cat}", band)
    import numpy as np
    no_cred = bands["NO_CRED"]
    # Scanning never stops once the farm is discovered: after the ~2 month
    # discovery ramp the farm-wide median stays positive nearly every day.
    assert (no_cred.median[200:] > 0).mean() > 0.7
    uri = bands["CMD_URI"]
    assert uri.p95.max() >= 4 * max(uri.p95.mean(), 0.25)  # bursty
