"""Integration tests for the whole-paper report."""

import numpy as np
import pytest

from repro.core.report import full_report, print_summary
from repro.workload.validation import paper_claim


@pytest.fixture(scope="module")
def report(small_dataset):
    return full_report(small_dataset)


class TestFullReport:
    def test_every_artifact_present(self, report):
        expected = {"table1", "table2", "table3", "table4", "table5", "table6"}
        expected |= {f"fig{i}" for i in ()}
        for key in ("fig1_pots_per_country", "fig2_activity", "fig3_bands_top",
                    "fig4_bands_all", "fig5_category_shares", "fig6_fractions",
                    "fig7_durations", "fig8_bands_by_category",
                    "fig9_bands_by_category_top", "fig10_clients_by_country",
                    "fig11_daily_ips", "fig12_pots_per_client",
                    "fig13_days_per_client", "fig14_clients_per_pot",
                    "fig15_combos", "fig16_diversity", "fig17_freshness",
                    "fig18_hashes_per_pot", "fig19_sessions_per_pot",
                    "fig20_clients_per_hash", "fig21_hashes_per_client",
                    "fig22_campaign_lengths", "fig23_country_by_category",
                    "fig24_diversity_by_category"):
            assert key in report, key
        for key in expected:
            assert key in report, key

    def test_fig1_is_paper_deployment(self, report):
        pots = report["fig1_pots_per_country"]
        assert sum(pots.values()) == 221
        assert len(pots) == 55

    def test_fig10_china_leads(self, report):
        by_country = report["fig10_clients_by_country"]
        assert max(by_country, key=by_country.get) == "CN"

    def test_fig18_19_decorrelated(self, report):
        # Pots collecting the most hashes differ from pots with most
        # sessions (paper Figs 18/19).
        hashes = report["fig18_hashes_per_pot"]
        sessions = report["fig19_sessions_per_pot"]
        top_hashes = set(np.argsort(hashes)[::-1][:10].tolist())
        top_sessions = set(np.argsort(sessions)[::-1][:10].tolist())
        assert top_hashes != top_sessions

    def test_fig20_21_long_tails(self, report):
        per_hash = report["fig20_clients_per_hash"]
        per_client = report["fig21_hashes_per_client"]
        assert per_hash[0] > per_hash[len(per_hash) // 2]
        assert per_client[0] > per_client[len(per_client) // 2]

    def test_fig22_trojans_outlast_mirai(self, report):
        ecdfs = report["fig22_campaign_lengths"]
        # Paper: trojan-tagged hashes are active on more days than mirai.
        assert ecdfs["trojan"].quantile(0.9) >= ecdfs["mirai"].quantile(0.9)

    def test_intel_coverage_low(self, report):
        assert report["intel_coverage"] < 0.15

    def test_summary_renders(self, small_dataset, report):
        text = print_summary(small_dataset, report)
        assert "paper" in text
        assert "SSH share" in text
        assert "%" in text

    def test_paper_values_table(self):
        assert paper_claim("FAIL_LOG share").paper == 0.42
