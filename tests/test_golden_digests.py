"""Pinned store digests: the sharded pipeline checked against fixed bytes.

The conformance suites compare the code with itself (inline vs pool,
scalar vs block).  These digests come from outside it: they were computed
once and pinned, so a change that shifts any draw, column or merge order
fails here even when every backend shifts the same way.  Re-pin only on a
deliberate byte-changing event, and record old -> new in CHANGES.md.
"""

import pytest

import repro
from repro.workload.config import ScenarioConfig

#: (denominator, seed, hash_scale) -> sha256 of ``store.content_digest()``.
GOLDEN = {
    (80000, 7, 0.004):
        "35be041f8b28ac598d94b6a5077c99f3c36e8294b959663d350b65e484477c23",
    (40000, 7, 0.004):
        "f9ff1bb7504e8b7af8ce32d2e9fb06e3b449eab2bdb54c4ca36cc86a3ae5c6ae",
    (20000, 99, 0.008):
        "e81e4b6476c77bfcfba8ff05ed03604661b447d08bab19d696c48c5376901ea6",
}


@pytest.mark.parametrize("backend,workers", [("inline", 1), ("pool", 2)])
@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "d%d-s%d-h%g" % k)
def test_store_digest_is_pinned(key, backend, workers):
    denominator, seed, hash_scale = key
    config = ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)
    dataset = repro.generate(config, backend=backend, workers=workers)
    assert dataset.store.content_digest() == GOLDEN[key]
