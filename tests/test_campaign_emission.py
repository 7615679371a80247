"""Row order of campaign shards: the layout the campaign emitter keeps.

A ``campaign_group`` payload holds its campaigns' rows campaign by
campaign in realized order, then day by day, then by client run; each
campaign's rows carry its script id and hash ids, and each day holds
``schedule[day]`` rows.  A split ``campaign`` shard holds its slice of
the schedule, drawn from the campaign's ``.p<start>`` stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.config import ScenarioConfig
from repro.workload.generator import TraceGenerator
from repro.workload.shards import ShardPlan, emit_shard

SECONDS_PER_DAY = 86_400


@pytest.fixture(scope="module")
def plan() -> ShardPlan:
    # 1/4000 seed 2023: four grouped campaigns rotate their members from
    # day to day, and H1 (which rotates too) splits into four shards.
    config = ScenarioConfig.from_denominator(4000, seed=2023)
    return ShardPlan(TraceGenerator(config))


def _rotates(campaign) -> bool:
    return len({id(m) for m in campaign.members_by_day.values()}) > 1


def _hash_rows(payload):
    ends = np.cumsum(payload.hash_lengths)
    return [tuple(payload.hash_values[end - n:end].tolist())
            for end, n in zip(ends, payload.hash_lengths)]


def _check_unit(plan, campaign, days, payload, hashes, lo: int) -> int:
    """Check one unit's rows from row ``lo``; return the row after them."""
    cols = payload.columns
    ip = plan.gen.population.ip
    for day in days:
        hi = lo + campaign.schedule[day]
        assert hi <= len(payload)
        assert np.all(cols["start_time"][lo:hi] // SECONDS_PER_DAY == day)
        assert np.all(cols["script_id"][lo:hi] == campaign.script_id)
        assert hashes[lo:hi] == [campaign.hash_ids] * (hi - lo)
        # Client runs: each member's sessions are contiguous, in the
        # order of the day's members.
        members = ip[campaign.pool[campaign.members_by_day[day]]].tolist()
        position = {client: k for k, client in enumerate(members)}
        assert len(position) == len(members)
        order = [position[client] for client in cols["client_ip"][lo:hi].tolist()]
        assert order == sorted(order)
        lo = hi
    return lo


def test_group_rows_run_campaign_then_day_then_client(plan):
    groups = [s for s in plan.shards if s.kind == "campaign_group"]
    assert groups
    rotating = 0
    for shard in groups:
        payload = emit_shard(plan, shard)
        hashes = _hash_rows(payload)
        row = 0
        for campaign in plan.gen.realized[shard.start:shard.stop]:
            row = _check_unit(plan, campaign, sorted(campaign.schedule),
                              payload, hashes, row)
            rotating += _rotates(campaign)
        assert row == len(payload)
    assert rotating >= 4


def test_split_campaign_shards_draw_from_their_start_stream(plan):
    splits = [s for s in plan.shards if s.kind == "campaign" and s.start > 0]
    assert splits
    for shard in splits:
        campaign = plan.campaigns_by_id[shard.key]
        assert _rotates(campaign)
        days = sorted(campaign.schedule)[shard.start:shard.stop]
        payload = emit_shard(plan, shard)
        assert _check_unit(plan, campaign, days, payload,
                           _hash_rows(payload), 0) == len(payload)
        # The slice's stream is named by its start: one multinomial per
        # day, then the start times.
        rng = plan.gen.engine.rng.child(f"emit.{shard.key}.p{shard.start}")
        for day in days:
            members = campaign.members_by_day[day]
            rng.multinomial(campaign.schedule[day], campaign.pool_weights[members])
        day_of = np.repeat(np.asarray(days, dtype=np.float64),
                           [campaign.schedule[day] for day in days])
        expected = day_of * SECONDS_PER_DAY + rng.uniform_array(
            0, SECONDS_PER_DAY, len(payload))
        assert np.array_equal(payload.columns["start_time"], expected)
