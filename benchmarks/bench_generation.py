"""Generation-pipeline throughput benchmarks.

Unlike the figure/table benchmarks (which analyse one shared trace), these
measure the production side: end-to-end generation throughput, the
chunked-builder freeze, npz persistence, and the fingerprint cache's
warm-hit speedup.  Scale is controlled by ``REPRO_BENCH_GEN_SCALE`` (the
downscale denominator; default 4000 -> ~100k sessions per round, a few
seconds total).
"""

from __future__ import annotations

import os
import time

import pytest

from common import echo, heading, workers_from_env

import repro
from repro.store.npz import load_npz, save_npz
from repro.store.store import StoreBuilder
from repro.workload import ScenarioConfig
from repro.workload.cache import DatasetCache, dataset_fingerprint

GEN_DENOMINATOR = int(os.environ.get("REPRO_BENCH_GEN_SCALE", 4000))


def gen_config() -> ScenarioConfig:
    return ScenarioConfig.from_denominator(
        GEN_DENOMINATOR,
        seed=int(os.environ.get("REPRO_BENCH_SEED", 2023)),
    )


@pytest.fixture(scope="module")
def gen_dataset():
    return repro.generate(gen_config(), backend="inline")


def _run(benchmark, fn, rounds: int = 3):
    """Run ``fn`` under the benchmark fixture; (result, best seconds).

    Falls back to a manual timer when benchmarking is disabled
    (``--benchmark-disable``), where ``benchmark.stats`` is None.
    """
    timing = {}

    def timed():
        t0 = time.perf_counter()
        result = fn()
        timing["seconds"] = min(
            timing.get("seconds", float("inf")), time.perf_counter() - t0
        )
        return result

    result = benchmark.pedantic(timed, rounds=rounds, iterations=1)
    stats = getattr(benchmark, "stats", None)
    seconds = stats.stats.min if stats is not None else timing["seconds"]
    return result, seconds


def test_generation_throughput(benchmark):
    """Sessions/second of the full generation pipeline (inline backend)."""
    result, seconds = _run(
        benchmark, lambda: repro.generate(gen_config(), backend="inline")
    )
    rate = len(result.store) / seconds
    benchmark.extra_info["sessions"] = len(result.store)
    benchmark.extra_info["sessions_per_second"] = round(rate)
    heading("generation throughput",
            f"1/{GEN_DENOMINATOR} scale, inline backend")
    echo(f"  {len(result.store):,} sessions at {rate:,.0f} sessions/s")


def test_scheduled_pool_throughput(benchmark):
    """Sessions/second of the scheduler's multiprocess pool backend.

    Worker count comes from ``REPRO_WORKERS`` (default 2) so the same
    harness measures any pool size; compare against the inline number
    above to see the scheduling + IPC overhead and parallel speedup.
    """
    workers = workers_from_env() or 2
    result, seconds = _run(
        benchmark,
        lambda: repro.generate(gen_config(), backend="pool", workers=workers),
    )
    rate = len(result.store) / seconds
    benchmark.extra_info["sessions"] = len(result.store)
    benchmark.extra_info["sessions_per_second"] = round(rate)
    benchmark.extra_info["workers"] = workers
    heading("scheduled pool throughput",
            f"1/{GEN_DENOMINATOR} scale, pool backend, {workers} workers")
    echo(f"  {len(result.store):,} sessions at {rate:,.0f} sessions/s")


def test_store_freeze(benchmark, gen_dataset):
    """Freeze cost alone: rebuild the store from one adopted block."""
    store = gen_dataset.store

    def freeze():
        builder = StoreBuilder()
        builder.adopt_store(store)
        return builder.build()

    rebuilt, seconds = _run(benchmark, freeze)
    benchmark.extra_info["sessions"] = len(rebuilt)
    echo(f"  freeze (adopt + build): {len(rebuilt):,} sessions in "
         f"{seconds * 1e3:.1f} ms")


def test_npz_save(benchmark, gen_dataset, tmp_path):
    path = tmp_path / "bench_store.npz"
    _, seconds = _run(benchmark, lambda: save_npz(gen_dataset.store, path))
    mb = path.stat().st_size / 1e6
    rate = mb / seconds
    benchmark.extra_info["npz_megabytes"] = round(mb, 2)
    benchmark.extra_info["save_mb_per_second"] = round(rate, 1)
    echo(f"  npz save: {mb:.1f} MB at {rate:.1f} MB/s")


def test_npz_load(benchmark, gen_dataset, tmp_path):
    path = tmp_path / "bench_store.npz"
    save_npz(gen_dataset.store, path)
    store, seconds = _run(benchmark, lambda: load_npz(path))
    mb = path.stat().st_size / 1e6
    rate = mb / seconds
    benchmark.extra_info["load_mb_per_second"] = round(rate, 1)
    echo(f"  npz load: {len(store):,} sessions at {rate:.1f} MB/s")


def test_streaming_ingest_throughput(benchmark, gen_dataset):
    """Events/second through the streaming-analytics sketch consumer.

    The store is replayed once into flight-recorder event dicts; each
    round feeds them through a fresh :class:`StreamingAnalytics` (HLLs,
    count-min, three top-k tables, exact mix/day accumulators), so the
    number is pure consumer cost, not replay cost.  The ``sketch/ingest``
    span this records is what the trajectory file persists as
    ``streaming_events_per_second``.
    """
    from repro.analytics import StreamingAnalytics, replay_store_events

    events = replay_store_events(gen_dataset.store)

    def ingest():
        analytics = StreamingAnalytics()
        analytics.ingest_events(events)
        return analytics

    analytics, seconds = _run(benchmark, ingest)
    rate = len(events) / seconds
    assert analytics.session_count() == len(gen_dataset.store)
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["events_per_second"] = round(rate)
    heading("streaming ingest throughput",
            f"1/{GEN_DENOMINATOR} scale, sketch consumer")
    echo(f"  {len(events):,} events at {rate:,.0f} events/s "
         f"({analytics.session_count():,} sessions)")


def test_cache_warm_vs_cold(benchmark, tmp_path_factory):
    """Warm fingerprint-cache hit vs cold generation of the same config."""
    config = gen_config()
    cache = DatasetCache(tmp_path_factory.mktemp("dataset-cache"))

    t0 = time.perf_counter()
    # miss: generate + store
    cold = repro.generate(config, backend="inline", cache=cache)
    cold_seconds = time.perf_counter() - t0

    warm, warm_seconds = _run(
        benchmark,
        lambda: repro.generate(config, backend="inline", cache=cache),
    )
    assert len(warm.store) == len(cold.store)
    assert cache.entry_dir(dataset_fingerprint(config)).is_dir()
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["cache_speedup"] = round(speedup, 1)
    heading("dataset cache", "warm hit vs cold generation")
    echo(f"  cold {cold_seconds:.2f} s, warm {warm_seconds * 1e3:.0f} ms "
         f"({speedup:.0f}x)")
