"""Whole-paper report: every table and figure computed from one dataset.

`full_report` runs all analyses and returns a nested dict of plain Python /
numpy values; `print_summary` renders the headline numbers next to the
paper's published values so a run can be eyeballed for shape agreement.
This is also what EXPERIMENTS.md is generated from.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import (
    activity,
    asns,
    clients,
    diversity,
    durations,
    freshness,
    tables,
    timeseries,
    versions,
)
from repro.core.blocking import blocklist_impact
from repro.core.classify import CATEGORIES, category_shares
from repro.core.context import AnalysisContext
from repro.core.federation import federation_report
from repro.core.hashes import (
    campaign_length_ecdfs,
    clients_per_hash_curve,
    hashes_per_client,
    hashes_per_honeypot,
    pot_coverage_summary,
)
from repro.obs import get_metrics
from repro.simulation.rng import RngStream
from repro.workload.dataset import HoneyfarmDataset
from repro.workload.validation import paper_claim


def full_report(
    dataset: HoneyfarmDataset, ctx: Optional[AnalysisContext] = None
) -> Dict:
    """Compute every table/figure artefact once.

    All analyses share one :class:`AnalysisContext` (pass ``ctx`` to reuse
    one built elsewhere), so the expensive intermediates — session
    classification, the hash-occurrence index, per-client groupbys — are
    each computed a single time for the whole report.
    """
    ctx = ctx or AnalysisContext.from_dataset(dataset)
    store = ctx.store
    pot_countries = [site.country for site in dataset.deployment.sites]
    metrics = get_metrics()

    with metrics.span("report"):
        with metrics.span("intermediates"):
            occ = ctx.hash_occurrences
            stats = ctx.hash_stats
            labels = {c.primary_hash: c.campaign_id for c in dataset.campaigns
                      if c.primary_hash}

        report: Dict = {}

        def timed(key: str, compute) -> None:
            with metrics.span(key):
                report[key] = compute()

        timed("table1", lambda: tables.table1_categories(ctx))
        timed("table2", lambda: tables.table2_passwords(ctx))
        timed("table3", lambda: tables.table3_commands(ctx))
        with metrics.span("tables_4_5_6"):
            hash_tables = tables.tables_4_5_6(ctx, dataset.intel, labels)
        report["table4"] = hash_tables.by_sessions
        report["table5"] = hash_tables.by_clients
        report["table6"] = hash_tables.by_days

        timed("fig1_pots_per_country",
              lambda: dataset.deployment.pots_per_country())
        timed("fig2_activity", lambda: activity.ActivitySummary.compute(store))
        timed("fig2_sorted_sessions", lambda: activity.sorted_activity(store))
        timed("fig3_bands_top", lambda: timeseries.bands_top_honeypots(store))
        timed("fig4_bands_all", lambda: timeseries.bands_all_honeypots(store))
        timed("fig5_category_shares", lambda: category_shares(ctx))
        timed("fig6_fractions",
              lambda: timeseries.category_fractions_over_time(ctx))
        timed("fig7_durations", lambda: durations.duration_ecdfs(ctx))
        timed("fig8_bands_by_category", lambda: timeseries.category_bands(ctx))
        timed("fig9_bands_by_category_top",
              lambda: timeseries.category_bands(ctx, 0.05))
        timed("fig10_clients_by_country",
              lambda: clients.clients_per_country(ctx))
        timed("fig11_daily_ips", lambda: clients.daily_unique_ips(ctx))
        timed("fig12_pots_per_client",
              lambda: clients.honeypots_per_client_ecdfs(ctx))
        timed("fig13_days_per_client",
              lambda: clients.days_per_client_ecdfs(ctx))
        timed("fig14_clients_per_pot",
              lambda: clients.clients_per_honeypot_report(ctx))
        timed("fig15_combos", lambda: clients.daily_category_combinations(ctx))
        timed("fig16_diversity",
              lambda: diversity.regional_diversity(ctx, pot_countries))
        timed("fig17_freshness", lambda: freshness.freshness_report(occ))
        timed("fig18_hashes_per_pot", lambda: hashes_per_honeypot(occ))
        timed("fig19_sessions_per_pot",
              lambda: activity.sessions_per_honeypot(store))
        timed("fig20_clients_per_hash", lambda: clients_per_hash_curve(stats))
        timed("fig21_hashes_per_client", lambda: hashes_per_client(occ))
        timed("fig22_campaign_lengths",
              lambda: campaign_length_ecdfs(stats, store, dataset.intel))
        timed("fig23_country_by_category",
              lambda: clients.clients_per_country_by_category(ctx))
        timed("fig24_diversity_by_category",
              lambda: diversity.diversity_by_category(ctx, pot_countries))

        timed("clients_summary", lambda: clients.clients_overall_summary(ctx))
        timed("hash_coverage", lambda: pot_coverage_summary(occ, stats))
        timed("intel_coverage",
              lambda: dataset.intel.coverage(store.hashes.values()))

        # Beyond-the-figures extensions (Section 9 discussion + related work).
        timed("ext_as_counts", lambda: asns.as_counts_by_category(ctx))
        timed("ext_versions", lambda: versions.version_counts(store)[:10])
        timed("ext_federation", lambda: federation_report(
            occ, k=4, rng=RngStream(dataset.config.seed, "report.federation")
        ))
        timed("ext_blocklist_100", lambda: blocklist_impact(ctx, occ, 100))
    return report


def print_summary(dataset: HoneyfarmDataset, report: Optional[Dict] = None) -> str:
    """Headline paper-vs-measured comparison, as printable text."""
    report = report or full_report(dataset)
    t1 = report["table1"]
    act = report["fig2_activity"]
    cs = report["clients_summary"]
    hc = report["hash_coverage"]
    div = report["fig16_diversity"]

    def paper(name: str) -> str:
        return paper_claim(name).text

    lines = [
        "=== Honeyfarm reproduction summary (paper vs measured) ===",
        f"sessions: {len(dataset.store):,} (paper: "
        f"{paper_claim('sessions').paper / 1e6:g}M, scale {dataset.config.scale:g})",
        f"SSH share: paper {paper_claim('SSH share').paper:.1%} | "
        f"measured {t1.protocol_totals['ssh']:.1%}",
    ]
    lines += [f"  {cat.value:<9} paper {paper_claim(f'{cat.value} share').paper:6.1%}"
              f" | measured {t1.overall[cat.value]:6.1%}" for cat in CATEGORIES]
    lines += [
        f"top-10 pot session share: paper {paper('top-10 session share')} | "
        f"measured {act.top10_share:.1%}",
        f"activity knee rank: paper {paper('knee rank')} | "
        f"measured {act.knee_rank}",
        f"max/min pot sessions: paper {paper('max/min pot sessions')} | "
        f"measured {act.max_min_ratio:.1f}x",
        f"clients: {cs['unique_ips']:,} IPs in {cs['unique_ases']:,} ASes",
        f"single-pot clients: paper {paper('single-pot client share')} | "
        f"measured {cs['share_single_pot']:.1%}",
        f">10-pot clients: paper {paper('>10-pot client share')} | "
        f"measured {cs['share_over_10_pots']:.1%}",
        f">half-farm clients: paper {paper('>half-farm client share')} | "
        f"measured {cs['share_over_half_pots']:.1%}",
        f"single-day clients: paper {paper('single-day client share')} | "
        f"measured {cs['share_single_day']:.1%}",
        f"multi-category clients: paper {paper('multi-category client share')}"
        f" | measured {cs['multi_category_share']:.1%}",
        f"hashes: {hc['n_hashes']:,} unique (paper {paper('unique hashes')})",
        f"single-pot hashes: paper {paper('single-pot hash share')} | "
        f"measured {hc['share_single_pot']:.1%}",
        f"top pot hash share: paper {paper('top pot hash share')} | "
        f"measured {hc['top_pot_hash_share']:.1%}",
        f"top-10 pot hash share: paper {paper('top-10 pot hash share')} | "
        f"measured {hc['top10_pot_hash_share']:.1%}",
        "out-of-continent-only client-days: paper "
        f"{paper('out-of-continent-only client-days')} | "
        f"measured {div.out_only_share:.1%}",
        f"intel coverage: paper {paper('threat-intel hash coverage')} | "
        f"measured {report['intel_coverage']:.1%}",
    ]
    return "\n".join(lines)
