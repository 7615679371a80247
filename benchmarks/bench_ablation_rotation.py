"""Ablation: campaign-member rotation.

Figure 13's short client lifetimes depend on bots participating in short
bursts of a campaign rather than on every active day.  Disabling rotation
makes every pool member active on every campaign day, inflating the
active-day counts of intrusion IPs.
"""

import numpy as np
import pytest
from common import echo, heading

import repro
from repro.core.classify import classify_store
from repro.core.clients import days_per_client
from repro.workload import ScenarioConfig

ABLATION_SCALE = 1 / 8000


def _cmd_heavy_days(dataset):
    """95th percentile of active days among intrusion IPs.

    Rotation binds hardest on the long-lived campaigns' heavy hitters
    (most members burst briefly); the distribution's tail is where the
    ablation shows.
    """
    store = dataset.store
    codes = classify_store(store)
    days = days_per_client(store, (codes == 3) | (codes == 4))
    return float(np.percentile(days, 95)) if len(days) else 0.0


@pytest.fixture(scope="module")
def ablated():
    return repro.generate(ScenarioConfig(
        scale=ABLATION_SCALE, seed=557, hash_scale=0.01,
        rotate_campaign_members=False,
    ))


@pytest.fixture(scope="module")
def baseline():
    return repro.generate(ScenarioConfig(
        scale=ABLATION_SCALE, seed=557, hash_scale=0.01,
    ))


def test_ablation_rotation(benchmark, baseline, ablated):
    base_days = benchmark.pedantic(_cmd_heavy_days, args=(baseline,),
                                   rounds=1, iterations=1)
    ablated_days = _cmd_heavy_days(ablated)
    heading("Ablation — campaign member rotation",
            "paper Fig 13: intrusion IPs are short-lived; without rotating "
            "bot participation their active-day tail balloons")
    echo(f"  baseline p95 active days per intrusion IP: {base_days:.1f}")
    echo(f"  ablated  p95 active days per intrusion IP: {ablated_days:.1f}")
    assert ablated_days > 1.2 * base_days
