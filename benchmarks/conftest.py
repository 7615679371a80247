"""Shared fixtures of the paper benches.

Each ``bench_*.py`` file regenerates one of the paper's tables or figures
and asserts its shape; nothing here times anything (``benchmarks/perf``
is the one place that does).  One scaled trace is generated per pytest
session and shared by every bench.  Scale is controlled by
``REPRO_BENCH_SCALE`` (the downscale denominator vs the paper's 402M
sessions; default 1000 -> ~402k sessions, all 221 honeypots, all 486
days).  Set ``REPRO_WORKERS=N`` to generate the trace with N worker
processes (the trace is the same for every N).
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


def pytest_sessionfinish(session, exitstatus):
    """Dump the metrics registry to ``REPRO_METRICS`` after a bench run."""
    target = os.environ.get("REPRO_METRICS")
    if target and target not in ("-", "1", "stderr"):
        from repro.obs import dump_json, get_metrics

        dump_json(get_metrics(), target)


def pytest_terminal_summary(terminalreporter):
    """Flush the paper-vs-measured narration at the end of the run.

    pytest captures the stdout of passing tests, so the comparisons each
    bench prints would otherwise never reach the operator.
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
