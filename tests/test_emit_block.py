"""Differential suite: scalar vs block emission paths.

The block engine buffers day-blocks and flushes them as one adoption per
shard; the scalar path writes every block straight to the builder.  The two
must be indistinguishable in everything but speed: byte-identical stores
(sha256 over the frozen npz columns) at every scale, worker count and
backend, bit-equal per-category session counts, and identical
streaming-analytics state.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analytics import StreamingAnalytics
from repro.core.classify import CATEGORIES, classify_store
from repro.obs import get_metrics
from repro.store.store import StoreBuilder
from repro.workload import ScenarioConfig
from repro.workload.blocks import BlockEmitter, emit_path, make_emitter
from repro.workload.emit import SessionEmitter

TINY = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)
MID = ScenarioConfig.from_denominator(40000)
SMOKE_4000 = ScenarioConfig.from_denominator(4000, seed=2023)


def generate_store(config, path, backend="inline", workers=1):
    import os

    saved = os.environ.get("REPRO_EMIT_PATH")
    os.environ["REPRO_EMIT_PATH"] = path
    try:
        return repro.generate(config, backend=backend, workers=workers).store
    finally:
        if saved is None:
            os.environ.pop("REPRO_EMIT_PATH", None)
        else:
            os.environ["REPRO_EMIT_PATH"] = saved


# -- path selection ----------------------------------------------------------


def test_emit_path_defaults_to_block(monkeypatch):
    monkeypatch.delenv("REPRO_EMIT_PATH", raising=False)
    assert emit_path() == "block"


@pytest.mark.parametrize("raw, want", [
    ("scalar", "scalar"), ("block", "block"),
    ("  SCALAR ", "scalar"), ("", "block"),
])
def test_emit_path_parses_env(monkeypatch, raw, want):
    monkeypatch.setenv("REPRO_EMIT_PATH", raw)
    assert emit_path() == want


def test_emit_path_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_EMIT_PATH", "turbo")
    with pytest.raises(ValueError, match="REPRO_EMIT_PATH"):
        emit_path()


def test_make_emitter_selects_class(monkeypatch):
    monkeypatch.setenv("REPRO_EMIT_PATH", "block")
    emitter = make_emitter(StoreBuilder())
    assert type(emitter) is BlockEmitter
    monkeypatch.setenv("REPRO_EMIT_PATH", "scalar")
    emitter = make_emitter(StoreBuilder())
    assert type(emitter) is SessionEmitter


def test_flush_on_empty_emitter_is_a_noop():
    emitter = BlockEmitter(StoreBuilder())
    before = get_metrics().to_dict()["counters"].get("emit.block.flushes", 0)
    emitter.flush()
    after = get_metrics().to_dict()["counters"].get("emit.block.flushes", 0)
    assert after == before


# -- byte identity across the matrix -----------------------------------------


def test_tiny_matrix_byte_identical():
    """workers {1, 2, 4} x {inline, pool}: scalar == block, one digest."""
    combos = [("inline", 1), ("pool", 1), ("pool", 2), ("pool", 4)]
    digests = {
        (path, backend, workers): generate_store(
            TINY, path, backend=backend, workers=workers
        ).content_digest()
        for path in ("scalar", "block")
        for backend, workers in combos
    }
    assert len(set(digests.values())) == 1, digests


def test_mid_scale_byte_identical():
    scalar = generate_store(MID, "scalar")
    block = generate_store(MID, "block")
    assert scalar.content_digest() == block.content_digest()


@pytest.mark.slow
def test_scale_4000_smoke_byte_identical():
    scalar = generate_store(SMOKE_4000, "scalar")
    block = generate_store(SMOKE_4000, "block")
    assert scalar.content_digest() == block.content_digest()


# -- per-category counts and streaming state ---------------------------------


def test_per_category_counts_bit_equal():
    scalar = generate_store(MID, "scalar")
    block = generate_store(MID, "block")
    scalar_mix = np.bincount(classify_store(scalar), minlength=len(CATEGORIES))
    block_mix = np.bincount(classify_store(block), minlength=len(CATEGORIES))
    assert np.array_equal(scalar_mix, block_mix)
    assert int(scalar_mix.sum()) == len(scalar) == len(block)


def test_streaming_analytics_identical_on_both_paths():
    scalar = generate_store(TINY, "scalar")
    block = generate_store(TINY, "block")
    a, b = StreamingAnalytics(), StreamingAnalytics()
    a.ingest_store(scalar)
    b.ingest_store(block)
    assert a == b
    assert a.session_count() == len(scalar)
    assert a.category_counts() == b.category_counts()
    assert np.array_equal(a.sessions_per_day(), b.sessions_per_day())


# -- block-path instrumentation ----------------------------------------------


def test_block_path_metrics_account_for_every_session():
    before = get_metrics().to_dict()["counters"]
    store = generate_store(TINY, "block")
    after = get_metrics().to_dict()["counters"]

    def moved(name):
        return after.get(name, 0) - before.get(name, 0)

    assert moved("emit.block.rows") == len(store)
    assert moved("emit.block.flushes") >= 1
    assert moved("emit.block.buffered_blocks") > 0


def test_scalar_path_emits_no_block_metrics():
    before = get_metrics().to_dict()["counters"]
    generate_store(TINY, "scalar")
    after = get_metrics().to_dict()["counters"]
    for name in ("emit.block.rows", "emit.block.flushes",
                 "emit.block.buffered_blocks"):
        assert after.get(name, 0) == before.get(name, 0), name
