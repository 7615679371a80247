"""Pinned digests: stores, reports and script profiles against fixed bytes.

The conformance suites compare the code with itself (inline vs pool).
These digests come from outside it: they were computed once and pinned,
so a change that shifts any draw, column or merge order fails here even
when every backend shifts the same way.  Re-pin only on a deliberate
byte-changing event, and record old -> new in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace

import pytest

import repro
from repro.agents.scripts import ScriptKind, build_script
from repro.workload.config import ScenarioConfig
from repro.workload.script_runner import ScriptRunner
from tests.report_digest import report_digest

#: (denominator, seed, hash_scale) -> sha256 of ``store.content_digest()``.
GOLDEN = {
    (80000, 7, 0.004):
        "d51d49259d014ae5c7282866760eb1aa3de14330c8125716afae6ab90b5cceed",
    (40000, 7, 0.004):
        "335b1072c3b9a880a11ff517affc3cd3f83284ba6e4bc5997b3e8c53cd67a740",
    (20000, 99, 0.008):
        "8092f97e1efa5996971ab64765e2c0140c2497c0c7961c58187b8c82c649e033",
    # The gen-10k-w1 benchmark config (default hash_scale at 1/40000).
    (40000, 2023, 0.002):
        "6c64ecda2c1d371d48e527ebf6e78260042992fd2c9570bef4ee93f2f628e748",
    # The gen-100k-w1 benchmark config (default hash_scale at 1/4000).
    (4000, 2023, 0.02):
        "ac5bb1ebcc63fd2e53f1f2ec52d4e072aca753695b913985de46898a1594ac0f",
}


@pytest.mark.parametrize("backend,workers", [("inline", 1), ("pool", 2)])
@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "d%d-s%d-h%g" % k)
def test_store_digest_is_pinned(key, backend, workers):
    denominator, seed, hash_scale = key
    config = ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)
    dataset = repro.generate(config, backend=backend, workers=workers)
    assert dataset.store.content_digest() == GOLDEN[key]


#: sha256 of the normalised ``full_report`` artifacts, ``print_summary``
#: text and ``validate`` checks (``tests.report_digest.report_digest``).
#: Pinned before the analysis context's distinct-tuple tables replaced the
#: per-figure groupbys, so a change in any figure's numbers fails here.
REPORT_GOLDEN = {
    "small_dataset":
        "a17cfe3a3ad092926b0e0ce68b4bdb2ec73de2c49bcd45c169fc72d79a509379",
    "d40000-s2023":
        "f7108b27effacf79877f6242f17146ad2060747a52dcb6c64779c7ccff39a498",
}


def test_report_digest_small_dataset_is_pinned(small_dataset):
    assert small_dataset.store.content_digest() == GOLDEN[(20000, 99, 0.008)]
    # A copy, so the digest never reads analysis state other tests cached.
    fresh = replace(small_dataset)
    assert report_digest(fresh) == REPORT_GOLDEN["small_dataset"]


def test_report_digest_gen_10k_config_is_pinned():
    config = ScenarioConfig.from_denominator(40000, seed=2023)
    dataset = repro.generate(config, backend="inline", workers=1)
    assert report_digest(dataset) == REPORT_GOLDEN["d40000-s2023"]


#: sha256 over every field of ``ScriptRunner().profile`` for each script
#: kind and token in ``PROFILE_TOKENS``.  Pinned while the engine-driven
#: reference profiler still existed and agreed on every one of them.
PROFILE_GOLDEN = (
    "9304943b51a0cea817de0b2becadf884efcbd7fdd7a5706624487fa6f7b2d107"
)
PROFILE_TOKENS = ("golden-a", "golden-b")


def profile_digest() -> str:
    """sha256 of a JSON serialisation (floats as hex) of each profile."""
    runner = ScriptRunner()
    rows = []
    for kind in ScriptKind:
        for token in PROFILE_TOKENS:
            p = runner.profile(build_script(kind, token=token))
            rows.append([
                p.kind.value, p.token, list(p.commands), list(p.uris),
                list(p.hashes), float(p.exec_seconds).hex(),
                float(p.download_seconds).hex(),
            ])
    blob = json.dumps(rows, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_script_profile_digest_is_pinned():
    assert profile_digest() == PROFILE_GOLDEN


#: The traced 1/80000 seed-7 generate (``GOLDEN``'s first config): sha256
#: of its ``generator.block`` events, volatile fields stripped, in trace
#: order, and the emission counters beside them.  Emission may change how
#: it draws and assembles a shard only if these stay put.
TRACE_KEY = (80000, 7, 0.004)
TRACE_BLOCKS_GOLDEN = (
    "eaeabeaafb3cf44b590b66dbac68ea9bc4b4b507da3652d930091b0e75973066"
)
TRACE_COUNTERS_GOLDEN = {
    "generator.campaign_days": 608,
    "generator.campaign_sessions": 727,
    "generator.sessions.CMD": 676,
    "generator.sessions.CMD_URI": 51,
    "generator.sessions.singletons": 365,
    "generator.sessions.NO_CRED": 1391,
    "generator.sessions.FAIL_LOG": 2110,
    "generator.sessions.NO_CMD": 582,
}


def _traced_generate(backend: str, workers: int):
    from repro.obs import use_metrics
    from repro.obs.trace import Tracer, strip_volatile, use_tracer

    denominator, seed, hash_scale = TRACE_KEY
    config = ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)
    tracer = Tracer(capacity=1 << 20)
    with use_metrics() as metrics, use_tracer(tracer):
        repro.generate(config, backend=backend, workers=workers)
    blocks = [strip_volatile(e) for e in tracer.to_list()
              if e["kind"] == "generator.block"]
    blob = json.dumps(blocks, separators=(",", ":"), sort_keys=True)
    counters = {
        name: value for name, value in metrics.counters.items()
        if name in ("generator.campaign_days", "generator.campaign_sessions")
        or name.startswith("generator.sessions.")
    }
    return hashlib.sha256(blob.encode()).hexdigest(), counters


@pytest.mark.parametrize("backend,workers", [("inline", 1), ("pool", 2)])
def test_block_trace_is_pinned(backend, workers):
    digest, counters = _traced_generate(backend, workers)
    assert counters == TRACE_COUNTERS_GOLDEN
    assert digest == TRACE_BLOCKS_GOLDEN
