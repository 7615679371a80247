"""Pinned plan digests: the shard plan checked against fixed bytes.

The store digests in ``test_golden_digests.py`` cover plan and emission
together.  These pin :func:`~repro.workload.shards.plan_digest` one layer
up: the population, target sets, AS registry, day buckets, realised
campaigns, singleton-writer plan and background budgets.  When a change
moves a store digest but not these, emission is the culprit; when these
move, the plan is.  Re-pin only on a deliberate byte-changing event.
"""

import numpy as np
import pytest

from repro.agents.population import ClientRole
from repro.workload.config import ScenarioConfig
from repro.workload.generator import _ROLE_CATEGORY, TraceGenerator
from repro.workload.shards import ShardPlan, plan_digest
from repro.workload.temporal import sample_active_days

#: (denominator, seed, hash_scale) -> sha256 of ``plan_digest``.
PLAN_GOLDEN = {
    (40000, 2023, 0.002):
        "99c2b4c82d12b8d3eda43d379f24c08e8382caecd09a60779415d325235a4499",
    (80000, 7, 0.004):
        "bad14485e7f405b67b5fe2b45ec7cb0f602d0334557fe63c8dfa2de19af448c5",
}


def _plan(key) -> ShardPlan:
    denominator, seed, hash_scale = key
    return ShardPlan(TraceGenerator(ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)))


@pytest.mark.parametrize("key", sorted(PLAN_GOLDEN), ids=lambda k: "d%d-s%d-h%g" % k)
def test_plan_digest_is_pinned(key):
    assert plan_digest(_plan(key)) == PLAN_GOLDEN[key]


def test_plan_digest_sees_a_one_row_change():
    plan = _plan((80000, 7, 0.004))
    before = plan_digest(plan)
    plan.gen.realized[0].pool_weights[0] += 1.0
    assert plan_digest(plan) != before


def test_day_buckets_match_per_client_appends():
    """The sorted (client, day) grouping lists every day's clients exactly
    as appending each client's active days in client order did."""
    gen = TraceGenerator(ScenarioConfig.from_denominator(80000, seed=7,
                                                         hash_scale=0.004))
    n_days = gen.config.n_days
    pop = gen.population
    rng = gen.rng.child("calendar")
    want = {cat: [[] for _ in range(n_days)] for _, cat in _ROLE_CATEGORY}
    for i in range(len(pop)):
        days = sample_active_days(rng, int(pop.first_day[i]),
                                  int(pop.n_days[i]), gen.envelopes["NO_CRED"])
        for role, cat in _ROLE_CATEGORY:
            if int(pop.roles[i]) & int(role):
                for d in days:
                    if d < n_days:
                        want[cat][d].append(i)
    for cat, days in want.items():
        got = gen.day_buckets[cat]
        assert len(got) == n_days
        for day, clients in enumerate(days):
            assert got[day].tolist() == clients
            assert got[day].dtype == np.int64


def test_with_role_is_memoised_and_read_only():
    pop = TraceGenerator(ScenarioConfig.from_denominator(
        80000, seed=7, hash_scale=0.004)).population
    cmd = pop.with_role(ClientRole.CMD)
    assert cmd is pop.with_role(ClientRole.CMD)
    assert np.array_equal(cmd, np.nonzero(pop.roles & int(ClientRole.CMD))[0])
    with pytest.raises(ValueError):
        cmd[0] = -1
