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
        "d51d49259d014ae5c7282866760eb1aa3de14330c8125716afae6ab90b5cceed",
    (40000, 7, 0.004):
        "335b1072c3b9a880a11ff517affc3cd3f83284ba6e4bc5997b3e8c53cd67a740",
    (20000, 99, 0.008):
        "8092f97e1efa5996971ab64765e2c0140c2497c0c7961c58187b8c82c649e033",
    # The gen-10k-w1 benchmark config (default hash_scale at 1/40000).
    (40000, 2023, 0.002):
        "6c64ecda2c1d371d48e527ebf6e78260042992fd2c9570bef4ee93f2f628e748",
}


@pytest.mark.parametrize("backend,workers", [("inline", 1), ("pool", 2)])
@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "d%d-s%d-h%g" % k)
def test_store_digest_is_pinned(key, backend, workers):
    denominator, seed, hash_scale = key
    config = ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)
    dataset = repro.generate(config, backend=backend, workers=workers)
    assert dataset.store.content_digest() == GOLDEN[key]
