"""Figure 20: number of client IPs per hash (log-log long tail)."""

import numpy as np
from common import echo, heading

from repro.core.hashes import clients_per_hash_curve


def test_fig20(hash_stats):
    curve = clients_per_hash_curve(hash_stats)
    heading("Figure 20 — client IPs per hash",
            "long-tailed: a few hashes involve 10k+ IPs, most involve a "
            "handful; heavy head = botnets, tail = blockable campaigns")
    idx = np.unique(np.geomspace(1, len(curve), 10).astype(int)) - 1
    echo("  sorted curve: " + ", ".join(
        f"r{int(i) + 1}={curve[i]:,}" for i in idx))
    echo(f"  head/median ratio: {curve[0] / max(np.median(curve), 1):.0f}x")
    assert curve[0] > 30 * np.median(curve)
    assert (np.diff(curve.astype(np.int64)) <= 0).all()
    single_ip = (curve == 1).mean()
    echo(f"  hashes with a single client IP: {single_ip:.1%}")
    assert single_ip > 0.2
