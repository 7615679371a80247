"""Shared benchmark fixtures.

One scaled trace is generated per pytest session and shared by every
benchmark.  Scale is controlled by ``REPRO_BENCH_SCALE`` (the downscale
denominator vs the paper's 402M sessions; default 1000 -> ~402k sessions,
all 221 honeypots, all 486 days).  Set ``REPRO_WORKERS=N`` to generate the
trace with N worker processes (the trace is the same for every N).
"""

from __future__ import annotations

import os

import pytest

from repro.core.hashes import HashOccurrences, compute_hash_stats
import repro
from repro.workload import ScenarioConfig

DEFAULT_DENOMINATOR = 1000


def bench_config() -> ScenarioConfig:
    denominator = int(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_DENOMINATOR))
    return ScenarioConfig.from_denominator(
        denominator,
        seed=int(os.environ.get("REPRO_BENCH_SEED", 2023)),
    )


@pytest.fixture(autouse=True)
def _bench_stage_metrics(request):
    """Attach a per-test ``stages`` breakdown to benchmark JSON output.

    Snapshots the current metrics registry around each test; whatever
    counters and span timings moved land in the benchmark fixture's
    ``extra_info`` (and hence in ``--benchmark-json`` artefacts) as a
    ``stages`` field.
    """
    from repro.obs import get_metrics

    benchmark = (request.getfixturevalue("benchmark")
                 if "benchmark" in request.fixturenames else None)
    snapshot = get_metrics().to_dict()
    yield
    if benchmark is None:
        return
    delta = get_metrics().delta_since(snapshot)
    if delta["counters"] or delta["spans"]:
        benchmark.extra_info["stages"] = delta


def pytest_sessionfinish(session, exitstatus):
    """Dump the registry (``REPRO_METRICS``) and/or append the benchmark
    trajectory (``REPRO_BENCH_TRAJECTORY``) after a benchmark run."""
    target = os.environ.get("REPRO_METRICS")
    if target and target not in ("-", "1", "stderr"):
        from repro.obs import dump_json, get_metrics

        dump_json(get_metrics(), target)

    trajectory = os.environ.get("REPRO_BENCH_TRAJECTORY")
    if trajectory:
        from repro.obs import get_metrics
        from repro.obs.trajectory import append_record

        record = append_record(
            trajectory,
            get_metrics().to_dict(),
            context={
                "source": "benchmarks",
                "scale": os.environ.get("REPRO_BENCH_SCALE",
                                        str(DEFAULT_DENOMINATOR)),
                "workers": os.environ.get("REPRO_WORKERS", "1"),
                # One emitter since the scalar path was deleted; the
                # literal keeps the gate's comparison series continuous.
                "emit_path": "block",
            },
        )
        sps = record["sessions_per_second"]
        shown = f"{sps:,.0f} sessions/sec" if sps else "no generation"
        print(f"\nbenchmark trajectory += {record['commit']} ({shown}) "
              f"-> {trajectory}")


def pytest_terminal_summary(terminalreporter):
    """Flush the paper-vs-measured narration after the benchmark table.

    pytest captures the stdout of passing tests, so the comparisons each
    benchmark prints would otherwise never reach the operator.
    """
    import common

    if not common.NARRATION:
        return
    terminalreporter.section("paper vs measured")
    for line in common.NARRATION:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def dataset():
    """The shared benchmark trace.

    With ``REPRO_CACHE`` (or ``--cache-dir`` semantics via the env var)
    set, repeated benchmark runs at the same scale/seed load the trace
    from the fingerprint cache instead of regenerating it.
    """
    from repro.workload.cache import resolve_cache_dir

    return repro.generate(bench_config(), cache=resolve_cache_dir())


@pytest.fixture(scope="session")
def store(dataset):
    return dataset.store


@pytest.fixture(scope="session")
def occurrences(dataset):
    return HashOccurrences.build(dataset.store)


@pytest.fixture(scope="session")
def hash_stats(occurrences):
    return compute_hash_stats(occurrences)


@pytest.fixture(scope="session")
def campaign_labels(dataset):
    return {c.primary_hash: c.campaign_id for c in dataset.campaigns
            if c.primary_hash}


@pytest.fixture(scope="session")
def pot_countries(dataset):
    return [site.country for site in dataset.deployment.sites]
