"""Metamorphic properties of the ``repro.core`` analyses.

The golden digests pin one answer.  These tests check relations that hold
whatever the numbers are, over every ``full_report`` artifact, the
``print_summary`` text and every ``validate`` check:

(a) permuting the session rows changes nothing;
(b) splitting the store three ways and ``SessionStore.merge``-ing the parts
    back (in another order) changes nothing;
(c) the category masks are disjoint and cover every session;
(d) a context that has already served a full report answers exactly like a
    fresh call on the bare store, and like a fresh call with an explicit
    category mask;
(e) rebuilding the store record by record in a permuted order, so the side
    tables are re-interned and their ids come in a new order, changes
    nothing but the artifacts listed in ``REINTERN_DEPENDENT``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import activity, asns, clients, diversity, durations, tables
from repro.core import timeseries, versions
from repro.core.blocking import blocklist_impact
from repro.core.classify import CATEGORIES, category_shares, classify_store
from repro.core.context import AnalysisContext
from repro.core.ecdf import Ecdf
from repro.core.federation import federation_report
from repro.core.freshness import freshness_report
from repro.core.hashes import (
    HashOccurrences,
    campaign_length_ecdfs,
    clients_per_hash_curve,
    compute_hash_stats,
    hashes_per_client,
    hashes_per_honeypot,
    pot_coverage_summary,
)
from repro.core.report import full_report
from repro.simulation.rng import RngStream
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder
from repro.workload.validation import validate
from tests.report_digest import (
    canonical,
    reintern_rows,
    report_sections,
    split_and_merge,
    take_rows,
)

#: Report keys whose value may legitimately change with the session row
#: order, each with its reason.  None do today: every artifact is a count,
#: a distribution or a ranking with id-ordered ties, and the side tables
#: (whose ids break those ties) survive both transformations unchanged.
ROW_ORDER_DEPENDENT: dict = {}

#: Report keys whose value still depends on the order side-table ids were
#: interned in, each with its reason.  Tables 2 and ``ext_versions`` rank
#: ties by label; Tables 4-6 still rank ties by hash id, and a label tie
#: break there moves both pinned report digests, so it waits for the next
#: deliberate report re-pin.  The test fails if this list is stale either
#: way: a new id-dependent artifact, or one of these fixed.
REINTERN_DEPENDENT = {
    key: "HashStats.top_by breaks ties on the sort column by hash id"
    for key in ("table4", "table5", "table6")
}


@pytest.fixture(scope="module")
def baseline(small_dataset):
    return report_sections(replace(small_dataset))


def _assert_same_sections(baseline, other):
    assert other["summary"] == baseline["summary"]
    assert other["validate"] == baseline["validate"]
    assert other["report"].keys() == baseline["report"].keys()
    differs = [key for key, value in baseline["report"].items()
               if key not in ROW_ORDER_DEPENDENT and other["report"][key] != value]
    assert differs == []


def test_a_row_permutation_changes_nothing(small_dataset, baseline):
    store = small_dataset.store
    rows = np.random.default_rng(5).permutation(len(store))
    permuted = take_rows(store, rows)
    assert permuted.content_digest() != store.content_digest()
    _assert_same_sections(baseline, report_sections(replace(small_dataset,
                                                            store=permuted)))


def test_b_three_way_split_and_merge_changes_nothing(small_dataset, baseline):
    store = small_dataset.store
    merged = split_and_merge(store)
    assert len(merged) == len(store)
    assert merged.content_digest() != store.content_digest()
    _assert_same_sections(baseline, report_sections(replace(small_dataset,
                                                            store=merged)))


def test_c_category_masks_partition_the_sessions(small_dataset):
    ctx = AnalysisContext(small_dataset.store)
    masks = np.array([ctx.category_mask(i) for i in range(len(CATEGORIES))])
    assert (masks.sum(axis=0) == 1).all()
    np.testing.assert_array_equal(np.argmax(masks, axis=0), ctx.category_codes)


def _fresh_artifacts(dataset):
    """Every ``full_report`` artifact, each from a fresh call on the bare
    store (no shared context)."""
    store, intel = dataset.store, dataset.intel
    pots = [site.country for site in dataset.deployment.sites]
    labels = {c.primary_hash: c.campaign_id for c in dataset.campaigns
              if c.primary_hash}
    occ = HashOccurrences.build(store)
    stats = compute_hash_stats(occ)
    hash_tables = tables.tables_4_5_6(store, intel, labels)
    return {
        "table1": tables.table1_categories(store),
        "table2": tables.table2_passwords(store),
        "table3": tables.table3_commands(store),
        "table4": hash_tables.by_sessions,
        "table5": hash_tables.by_clients,
        "table6": hash_tables.by_days,
        "fig1_pots_per_country": dataset.deployment.pots_per_country(),
        "fig2_activity": activity.ActivitySummary.compute(store),
        "fig2_sorted_sessions": activity.sorted_activity(store),
        "fig3_bands_top": timeseries.bands_top_honeypots(store),
        "fig4_bands_all": timeseries.bands_all_honeypots(store),
        "fig5_category_shares": category_shares(store),
        "fig6_fractions": timeseries.category_fractions_over_time(store),
        "fig7_durations": durations.duration_ecdfs(store),
        "fig8_bands_by_category": timeseries.category_bands(store),
        "fig9_bands_by_category_top": timeseries.category_bands(store, 0.05),
        "fig10_clients_by_country": clients.clients_per_country(store),
        "fig11_daily_ips": clients.daily_unique_ips(store),
        "fig12_pots_per_client": clients.honeypots_per_client_ecdfs(store),
        "fig13_days_per_client": clients.days_per_client_ecdfs(store),
        "fig14_clients_per_pot": clients.clients_per_honeypot_report(store),
        "fig15_combos": clients.daily_category_combinations(store),
        "fig16_diversity": diversity.regional_diversity(store, pots),
        "fig17_freshness": freshness_report(occ),
        "fig18_hashes_per_pot": hashes_per_honeypot(occ),
        "fig19_sessions_per_pot": activity.sessions_per_honeypot(store),
        "fig20_clients_per_hash": clients_per_hash_curve(stats),
        "fig21_hashes_per_client": hashes_per_client(occ),
        "fig22_campaign_lengths": campaign_length_ecdfs(stats, store, intel),
        "fig23_country_by_category": clients.clients_per_country_by_category(store),
        "fig24_diversity_by_category": diversity.diversity_by_category(store, pots),
        "clients_summary": clients.clients_overall_summary(store),
        "hash_coverage": pot_coverage_summary(occ, stats),
        "intel_coverage": intel.coverage(store.hashes.values()),
        "ext_as_counts": asns.as_counts_by_category(store),
        "ext_versions": versions.version_counts(store)[:10],
        "ext_federation": federation_report(
            occ, k=4, rng=RngStream(dataset.config.seed, "report.federation")),
        "ext_blocklist_100": blocklist_impact(store, occ, 100),
    }


@pytest.fixture(scope="module")
def warm(small_dataset):
    """A dataset whose one context has served a full report and validate."""
    dataset = replace(small_dataset)
    report = full_report(dataset)
    checks = validate(dataset).checks
    return dataset, report, checks


def test_d_warm_context_equals_fresh_bare_store_calls(warm):
    dataset, report, checks = warm
    ctx = AnalysisContext.from_dataset(dataset)
    fresh = _fresh_artifacts(replace(dataset))
    assert fresh.keys() == report.keys()
    for key, value in fresh.items():
        assert canonical(value) == canonical(report[key]), key
    # Served again from the warm context: still the same answers.
    again = full_report(dataset, ctx)
    for key, value in again.items():
        assert canonical(value) == canonical(report[key]), key
    assert [canonical(c) for c in validate(dataset).checks] == \
        [canonical(c) for c in checks] == \
        [canonical(c) for c in validate(replace(dataset)).checks]


def test_d_per_category_artifacts_equal_explicit_mask_calls(warm):
    dataset, report, checks = warm
    store = dataset.store
    pots = [site.country for site in dataset.deployment.sites]
    codes = classify_store(store)
    every = np.ones(len(store), dtype=bool)

    def same(a, b):
        return canonical(a) == canonical(b)

    assert same(report["fig10_clients_by_country"],
                clients.clients_per_country(store, every))
    assert same(report["fig12_pots_per_client"]["ALL"],
                Ecdf(clients.honeypots_per_client(store, every)))
    assert same(report["fig13_days_per_client"]["ALL"],
                Ecdf(clients.days_per_client(store, every)))
    assert same(report["fig14_clients_per_pot"].overall,
                clients.clients_per_honeypot(store, every))
    assert same(report["fig16_diversity"],
                diversity.regional_diversity(store, pots, every))
    assert report["clients_summary"]["unique_ips"] == \
        clients.unique_client_count(store, every)

    share_checks = {c.name: c.measured for c in checks}
    seen_in = np.zeros(clients.unique_client_count(store), dtype=int)
    for i, cat in enumerate(CATEGORIES):
        mask = codes == i
        name = cat.value
        assert report["table1"].overall[name] == mask.mean()
        assert share_checks[f"{name} share"] == mask.mean()
        assert same(report["fig7_durations"].ecdfs[name],
                    Ecdf(store.duration[mask]))
        assert same(report["fig8_bands_by_category"][name],
                    timeseries.bands_all_honeypots(store, mask))
        assert report["fig11_daily_ips"][name].sum() == \
            clients.days_per_client(store, mask).sum()
        busiest = int(np.argmax(report["fig11_daily_ips"][name]))
        assert report["fig11_daily_ips"][name][busiest] == \
            clients.unique_client_count(store, mask & (store.day == busiest))
        assert same(report["fig12_pots_per_client"][name],
                    Ecdf(clients.honeypots_per_client(store, mask)))
        assert same(report["fig13_days_per_client"][name],
                    Ecdf(clients.days_per_client(store, mask)))
        assert same(report["fig14_clients_per_pot"].per_category[name],
                    clients.clients_per_honeypot(store, mask))
        assert same(report["fig23_country_by_category"][name],
                    clients.clients_per_country(store, mask))
        assert same(report["fig24_diversity_by_category"][name],
                    diversity.regional_diversity(store, pots, mask))
        assert report["ext_as_counts"][name] == \
            clients.unique_as_count(store, mask)
        seen_in[np.searchsorted(clients.unique_clients(store),
                                clients.unique_clients(store, mask))] += 1
    assert report["clients_summary"]["multi_category_share"] == \
        float((seen_in > 1).mean())


def test_e_reinterned_side_tables_change_only_the_listed_artifacts(
        small_dataset, baseline):
    store = small_dataset.store
    rows = np.random.default_rng(11).permutation(len(store))
    rebuilt = reintern_rows(store, rows)
    for name in ("countries", "passwords", "usernames", "hashes", "versions"):
        assert getattr(rebuilt, name).values() != \
            getattr(store, name).values(), f"{name} ids did not move"
    assert [s.commands for s in rebuilt.scripts] != \
        [s.commands for s in store.scripts]
    other = report_sections(replace(small_dataset, store=rebuilt))
    assert other["summary"] == baseline["summary"]
    assert other["validate"] == baseline["validate"]
    assert other["report"].keys() == baseline["report"].keys()
    differs = {key for key, value in baseline["report"].items()
               if other["report"][key] != value}
    assert differs == set(REINTERN_DEPENDENT)


def test_e_rank_ties_break_by_label_not_by_interned_id():
    # small_dataset has no tie at the top of Table 2 or ext_versions, so
    # pin the tie break on two sessions interned in both orders.
    def store_of(rows):
        builder = StoreBuilder()
        for password, version in rows:
            builder.append(SessionRecord(
                start_time=0.0, duration=1.0, honeypot_id="p0",
                protocol="ssh", client_ip=1, client_asn=1,
                client_country="US", n_login_attempts=1, login_success=True,
                username="root", password=password, client_version=version,
            ))
        return builder.build()

    rows = [("zeta", "SSH-2.0-b"), ("alpha", "SSH-2.0-a")]
    for store in (store_of(rows), store_of(rows[::-1])):
        assert tables.table2_passwords(store) == [("alpha", 1), ("zeta", 1)]
        assert versions.version_counts(store) == \
            [("SSH-2.0-a", 1), ("SSH-2.0-b", 1)]
