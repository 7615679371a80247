"""Tests for the generator's modelled dynamics (ramps, spikes, RU prefix)."""

import numpy as np
import pytest

from repro.core.classify import classify_store
from repro.workload.temporal import (
    DAY_SPIKE_SEP5,
    RU_EDGE_EARLY_END,
    RU_EDGE_LATE_START,
)


@pytest.fixture(scope="module")
def mid_dataset():
    """A mid-sized trace where the temporal dynamics are measurable."""
    import repro
    from repro.workload import ScenarioConfig
    return repro.generate(ScenarioConfig(scale=1 / 2000, seed=4,
                                         hash_scale=0.015))


class TestRuPrefix:
    def test_edge_no_cmd_dominated_by_one_as(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        early = (codes == 2) & (store.day < RU_EDGE_EARLY_END)
        asns, counts = np.unique(store.client_asn[early], return_counts=True)
        top_share = counts.max() / counts.sum()
        # "A single prefix originates most of these sessions."
        assert top_share > 0.5

    def test_ru_prefix_quiet_mid_window(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        early = (codes == 2) & (store.day < RU_EDGE_EARLY_END)
        asns, counts = np.unique(store.client_asn[early], return_counts=True)
        ru_asn = int(asns[np.argmax(counts)])
        mid = (codes == 2) & (store.day >= RU_EDGE_EARLY_END) \
            & (store.day < RU_EDGE_LATE_START)
        mid_share = float((store.client_asn[mid] == ru_asn).mean())
        assert mid_share < 0.25

    def test_ru_prefix_country(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        early = (codes == 2) & (store.day < RU_EDGE_EARLY_END)
        countries = store.client_country[early]
        ids, counts = np.unique(countries, return_counts=True)
        top_country = store.countries.value_of(int(ids[np.argmax(counts)]))
        assert top_country == "RU"


class TestFailLogSpike:
    def test_spike_day_volume(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        fail_days = store.day[codes == 1]
        daily = np.bincount(fail_days, minlength=486)
        baseline = np.median(daily[daily > 0])
        assert daily[DAY_SPIKE_SEP5] > 4 * baseline

    def test_spike_concentrated_on_few_pots(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        spike = (codes == 1) & (store.day == DAY_SPIKE_SEP5)
        pots = store.honeypot[spike]
        counts = np.bincount(pots, minlength=221)
        top3 = np.sort(counts)[::-1][:3].sum()
        # The surplus lands on ~3 pots (paper: spikes seen by a small subset).
        assert top3 / counts.sum() > 0.5

    def test_spike_driven_by_few_clients(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        spike = (codes == 1) & (store.day == DAY_SPIKE_SEP5)
        spike_ips = np.unique(store.client_ip[spike])
        normal = (codes == 1) & (store.day == DAY_SPIKE_SEP5 - 7)
        normal_ips = np.unique(store.client_ip[normal])
        sessions_per_ip_spike = spike.sum() / max(len(spike_ips), 1)
        sessions_per_ip_normal = normal.sum() / max(len(normal_ips), 1)
        assert sessions_per_ip_spike > 3 * sessions_per_ip_normal


class TestBudgets:
    def test_total_sessions_near_budget(self, mid_dataset):
        target = mid_dataset.config.total_sessions
        assert 0.9 * target <= len(mid_dataset.store) <= 1.3 * target

    def test_all_honeypots_active(self, mid_dataset):
        counts = np.bincount(mid_dataset.store.honeypot, minlength=221)
        assert (counts > 0).all()

    def test_scanning_never_stops(self, mid_dataset):
        store = mid_dataset.store
        codes = classify_store(store)
        daily = np.bincount(store.day[codes == 0], minlength=486)
        assert (daily > 0).all()
