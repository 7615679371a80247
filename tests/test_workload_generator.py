"""Integration tests for the trace generator (shared small dataset)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import Category, category_shares
from repro.workload.config import CATEGORY_MIX, SSH_SHARE, ScenarioConfig
from repro.workload.generator import _daily_budgets, _rescale_schedule


class TestScenarioConfig:
    def test_defaults_derive_clients(self):
        cfg = ScenarioConfig()
        assert cfg.n_clients > 0
        assert cfg.total_sessions == int(402_000_000 * cfg.scale)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scale=0)

    def test_category_mix_sums_to_one(self):
        assert sum(CATEGORY_MIX.values()) == pytest.approx(1.0)

    def test_ssh_share_table(self):
        # Weighted protocol mix reproduces the paper's 75.8% SSH overall.
        total = sum(CATEGORY_MIX[c] * SSH_SHARE[c] for c in CATEGORY_MIX)
        assert total == pytest.approx(0.758, abs=0.01)

    def test_hash_budget(self):
        cfg = ScenarioConfig(hash_scale=0.1)
        assert cfg.n_hashes_target == int(64_004 * 0.1)
        assert cfg.n_midtail_campaigns < cfg.n_hashes_target


class TestHelpers:
    def test_daily_budgets_exact_total(self):
        env = np.random.RandomState(0).rand(486)
        env /= env.sum()
        budgets = _daily_budgets(10_000, env)
        assert budgets.sum() == 10_000
        assert (budgets >= 0).all()

    def test_daily_budgets_follow_envelope(self):
        env = np.ones(10)
        env[3] = 100.0
        env /= env.sum()
        budgets = _daily_budgets(1000, env)
        assert budgets[3] > 800

    def test_rescale_schedule_noop_above_one(self):
        schedule = {1: 10, 2: 20}
        assert _rescale_schedule(schedule, 1.5) == schedule

    def test_rescale_schedule_halves(self):
        schedule = {1: 10, 2: 10}
        out = _rescale_schedule(schedule, 0.5)
        assert sum(out.values()) == 10

    def test_rescale_schedule_drops_days_when_tiny(self):
        schedule = {d: 1 for d in range(20)}
        out = _rescale_schedule(schedule, 0.1)
        assert sum(out.values()) == 2
        assert len(out) == 2

    def test_rescale_never_empty(self):
        out = _rescale_schedule({5: 100}, 0.0001)
        assert out == {5: 1}

    def test_rescale_hands_out_the_floor_deficit(self):
        # Floors give 1+1+1+30 = 33; the two missing sessions go to the
        # largest remainders (0.8 each on days 1 and 2).
        out = _rescale_schedule({1: 3, 2: 3, 3: 3, 4: 50}, 0.6)
        assert out == {1: 2, 2: 2, 3: 1, 4: 30}

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 400), min_size=1, max_size=40),
        factor=st.floats(0.001, 0.999),
    )
    def test_rescale_sums_to_its_target(self, counts, factor):
        schedule = {3 * i + 1: c for i, c in enumerate(counts)}
        target = max(1, int(round(sum(counts) * factor)))
        out = _rescale_schedule(schedule, factor)
        assert set(out) <= set(schedule)
        assert all(v >= 1 for v in out.values())
        if target > len(schedule):
            assert sum(out.values()) == target
            assert set(out) == set(schedule)


class TestGeneratedDataset:
    def test_farm_shape(self, small_dataset):
        assert small_dataset.deployment.n_honeypots == 221
        assert small_dataset.store.n_honeypots == 221

    def test_sessions_near_budget(self, small_dataset, small_config):
        n = small_dataset.n_sessions
        assert 0.8 * small_config.total_sessions <= n <= 1.6 * small_config.total_sessions

    def test_all_days_active(self, small_dataset):
        store = small_dataset.store
        daily = np.bincount(store.day, minlength=486)
        assert (daily > 0).mean() > 0.99

    def test_category_mix_close(self, small_store):
        shares = category_shares(small_store)
        for cat, target in CATEGORY_MIX.items():
            assert shares[Category(cat)] == pytest.approx(target, abs=0.05)

    def test_ssh_share_close(self, small_store):
        assert small_store.is_ssh.mean() == pytest.approx(0.758, abs=0.05)

    def test_client_countries_stamped(self, small_store):
        assert (small_store.client_country >= 0).all()
        countries = set(small_store.countries.values())
        assert "CN" in countries

    def test_client_asns_stamped(self, small_store):
        assert (small_store.client_asn > 0).all()

    def test_durations_positive(self, small_store):
        assert (small_store.duration > 0).all()

    def test_start_times_in_window(self, small_store):
        assert small_store.start_time.min() >= 0
        assert small_store.day.max() < 486

    def test_hashes_only_on_successful_cmd_sessions(self, small_store):
        for i in range(len(small_store)):
            if small_store.hash_ids[i]:
                assert small_store.login_success[i]
                assert small_store.n_commands[i] > 0

    def test_h1_campaign_realised(self, small_dataset):
        h1 = small_dataset.campaign("H1")
        assert h1 is not None
        assert h1.primary_hash
        # H1 targets the whole farm.
        assert len(h1.honeypot_indices) == 221

    def test_mirai_family_shares_pots(self, small_dataset):
        h24 = small_dataset.campaign("H24")
        h25 = small_dataset.campaign("H25")
        assert h24 is not None and h25 is not None
        assert set(h25.honeypot_indices) <= set(h24.honeypot_indices)

    def test_campaign_hashes_in_intel(self, small_dataset):
        h1 = small_dataset.campaign("H1")
        entry = small_dataset.intel.lookup(h1.primary_hash)
        assert entry is not None
        assert entry.tag.value == "trojan"

    def test_campaign_hashes_present_in_store(self, small_dataset):
        store = small_dataset.store
        h1 = small_dataset.campaign("H1")
        assert h1.primary_hash in store.hashes

    def test_deterministic(self, small_config):
        from repro.workload import generate_dataset
        a = generate_dataset(small_config)
        b = generate_dataset(small_config)
        assert len(a.store) == len(b.store)
        assert np.array_equal(a.store.client_ip, b.store.client_ip)
        assert np.array_equal(a.store.start_time, b.store.start_time)
        assert a.store.hashes.values() == b.store.hashes.values()

    def test_envelopes_attached(self, small_dataset):
        assert set(small_dataset.envelopes) == set(CATEGORY_MIX)
