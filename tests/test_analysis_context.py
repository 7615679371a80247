"""AnalysisContext: store-or-context equivalence and memoization."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import classify, clients, durations, hashes, tables, timeseries
from repro.core.context import AnalysisContext, as_context, as_store
from repro.core.report import full_report
from repro.obs import use_metrics
from repro.workload.validation import validate


def test_as_context_passthrough_and_wrap(small_store):
    ctx = AnalysisContext(small_store)
    assert as_context(ctx) is ctx
    assert as_context(small_store).store is small_store
    assert as_store(ctx) is small_store
    assert as_store(small_store) is small_store


def test_context_memoizes_derived_state(small_store):
    ctx = AnalysisContext(small_store)
    assert ctx.category_codes is ctx.category_codes
    assert ctx.category_mask(3) is ctx.category_mask(3)
    assert ctx.hash_occurrences is ctx.hash_occurrences
    assert ctx.hash_stats is ctx.hash_stats
    assert ctx.daily_totals is ctx.daily_totals
    assert ctx.pots_per_client is ctx.pots_per_client
    assert ctx.days_per_client is ctx.days_per_client


def test_context_results_match_plain_store(small_dataset):
    """Every analysis returns the same values through a shared context."""
    store = small_dataset.store
    ctx = AnalysisContext.from_dataset(small_dataset)

    np.testing.assert_array_equal(
        ctx.category_codes, classify.classify_store(store))
    assert classify.category_shares(ctx) == classify.category_shares(store)
    assert tables.table1_categories(ctx) == tables.table1_categories(store)

    via_ctx = clients.clients_overall_summary(ctx)
    via_store = clients.clients_overall_summary(store)
    assert via_ctx == via_store

    for key, series in timeseries.category_fractions_over_time(ctx).items():
        np.testing.assert_array_equal(
            series, timeseries.category_fractions_over_time(store)[key])

    assert durations.duration_ecdfs(ctx).ecdfs.keys() == \
        durations.duration_ecdfs(store).ecdfs.keys()

    occ = hashes.HashOccurrences.build(store)
    np.testing.assert_array_equal(ctx.hash_occurrences.session_idx,
                                  occ.session_idx)
    np.testing.assert_array_equal(ctx.hash_occurrences.hash_id, occ.hash_id)


def test_full_report_accepts_prebuilt_context(small_dataset):
    ctx = AnalysisContext.from_dataset(small_dataset)
    report = full_report(small_dataset, ctx)
    assert report["table1"].overall == \
        tables.table1_categories(small_dataset.store).overall


def _count_intermediates(monkeypatch):
    """Count classification passes and occurrence builds from here on."""
    calls = {"classify": 0, "occurrences": 0}

    real_classify = classify.classify_store
    real_build = hashes.HashOccurrences.build

    def counting_classify(store):
        calls["classify"] += 1
        return real_classify(store)

    def counting_build(store):
        calls["occurrences"] += 1
        return real_build(store)

    monkeypatch.setattr(classify, "classify_store", counting_classify)
    monkeypatch.setattr(hashes.HashOccurrences, "build", counting_build)
    return calls


def test_full_report_computes_each_intermediate_once(small_dataset, monkeypatch):
    """One report = one classification pass and one occurrence build."""
    calls = _count_intermediates(monkeypatch)
    # A fresh dataset: the shared fixture's context may already be warm.
    full_report(replace(small_dataset))
    assert calls == {"classify": 1, "occurrences": 1}


def test_report_and_validate_share_one_context(small_dataset, monkeypatch):
    """full_report + validate on one dataset: every table built once."""
    dataset = replace(small_dataset)
    calls = _count_intermediates(monkeypatch)
    with use_metrics() as metrics:
        full_report(dataset)
        validate(dataset)
    assert calls == {"classify": 1, "occurrences": 1}
    for table in ("client_table", "client_pot", "client_day"):
        assert metrics.counter(f"context.{table}.miss") == 1, table
        assert metrics.counter(f"context.{table}.hit") > 0, table
        builds = [cell["count"] for path, cell in metrics.spans.items()
                  if path.endswith(f"core/ctx/{table}")]
        assert builds == [1], table
    assert AnalysisContext.from_dataset(dataset) is \
        AnalysisContext.from_dataset(dataset)


def test_context_follows_the_dataset_store(small_dataset):
    dataset = replace(small_dataset)
    first = AnalysisContext.from_dataset(dataset)
    assert first.pot_countries == tuple(
        site.country for site in dataset.deployment.sites)
    dataset.store = dataset.store.filter(np.ones(len(dataset.store), dtype=bool))
    assert AnalysisContext.from_dataset(dataset) is not first


def test_hash_tables_supports_attribute_and_key_access(small_dataset):
    labels = {c.primary_hash: c.campaign_id
              for c in small_dataset.campaigns if c.primary_hash}
    result = tables.tables_4_5_6(small_dataset.store, small_dataset.intel,
                                 labels)
    assert isinstance(result, tables.HashTables)
    assert result["by_sessions"] is result.by_sessions
    assert result["by_clients"] is result.by_clients
    assert result["by_days"] is result.by_days
    assert [k for k, _ in result.items()] == list(tables.HashTables.KEYS)
    with pytest.raises(KeyError):
        result["by_pots"]
