"""Sharded multiprocess generation: determinism and store merging.

The sharded generator must produce the same store for every worker count,
and the merge layer must remap interned ids correctly when combining
stores whose string tables diverged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store.records import SessionRecord
from repro.store.store import SessionStore, StoreBuilder
from repro.workload import ScenarioConfig, generate_dataset
from repro.workload.shards import ShardPlan, generate_sharded


def fingerprint(store: SessionStore) -> tuple:
    """Full content identity of a store (column bytes + tables + scripts)."""
    columns = (
        store.start_time, store.duration, store.honeypot, store.protocol,
        store.client_ip, store.client_asn, store.client_country,
        store.n_attempts, store.login_success, store.script_id,
        store.password_id, store.username_id, store.close_reason,
        store.version_id,
    )
    return (
        tuple(np.asarray(c).tobytes() for c in columns),
        tuple(store.hash_ids),
        tuple(store.honeypots.values()),
        tuple(store.countries.values()),
        tuple(store.passwords.values()),
        tuple(store.usernames.values()),
        tuple(store.hashes.values()),
        tuple(store.versions.values()),
        tuple((s.commands, s.uris) for s in store.scripts),
    )


@pytest.fixture(scope="module")
def sharded_config() -> ScenarioConfig:
    return ScenarioConfig(scale=1 / 40000, seed=7, hash_scale=0.004)


def test_worker_count_does_not_change_output(sharded_config):
    serial = generate_sharded(sharded_config, workers=1)
    parallel = generate_dataset(sharded_config, workers=4)
    assert fingerprint(serial.store) == fingerprint(parallel.store)
    assert [c.campaign_id for c in serial.campaigns] == \
        [c.campaign_id for c in parallel.campaigns]


def test_sharded_volume_matches_legacy(sharded_config):
    """Shard budgets are coupled to the serial plan: same session count."""
    legacy = generate_dataset(sharded_config)  # workers=None -> serial path
    sharded = generate_dataset(sharded_config, workers=1)
    assert len(sharded.store) == len(legacy.store)


def test_repeated_sharded_runs_are_identical(sharded_config):
    """The cached shard plan must not accumulate state between runs."""
    first = generate_sharded(sharded_config, workers=1)
    second = generate_sharded(sharded_config, workers=1)
    assert fingerprint(first.store) == fingerprint(second.store)


def test_shards_cover_scenario_exactly_once(sharded_config):
    from repro.workload.generator import TraceGenerator

    plan = ShardPlan(TraceGenerator(sharded_config))
    seen = set()
    for shard in plan.shards:
        for pos in range(shard.start, shard.stop):
            key = (shard.kind, shard.key, pos)
            assert key not in seen
            seen.add(key)


def _record_stream_names(monkeypatch) -> list:
    """Patch RngStream construction to log every stream name it mints."""
    from repro.simulation.rng import RngStream

    names: list = []
    original = RngStream.__init__

    def recording(self, master_seed, name="root"):
        names.append(name)
        original(self, master_seed, name)

    monkeypatch.setattr(RngStream, "__init__", recording)
    return names


def test_no_two_shards_share_an_rng_stream(monkeypatch):
    """Shard boundaries decide bytes: every shard owns its streams."""
    from repro.workload.generator import TraceGenerator
    from repro.workload.shards import emit_shard

    # 1/20000 is the smallest scale whose plan has every shard kind,
    # split campaigns included.
    config = ScenarioConfig.from_denominator(20000, seed=7)
    names = _record_stream_names(monkeypatch)
    plan = ShardPlan(TraceGenerator(config))
    assert {s.kind for s in plan.shards} == {
        "campaign", "campaign_group", "singletons", "bg_cmd", "bg_uri",
        "no_cred", "fail_log", "no_cmd"}
    owner = {name: "plan" for name in names}
    for shard in plan.shards:
        del names[:]
        emit_shard(plan, shard)
        assert names, shard
        for name in names:
            assert owner.setdefault(name, shard) == shard, (name, shard)


def test_fresh_plans_enumerate_equal_shards(sharded_config):
    from repro.workload.generator import TraceGenerator

    first = ShardPlan(TraceGenerator(sharded_config))
    second = ShardPlan(TraceGenerator(sharded_config))
    assert first.shards == second.shards
    assert np.array_equal(first.writer_pots, second.writer_pots)
    assert np.array_equal(first.writer_sessions, second.writer_sessions)


def _record(i: int, honeypot: str, country: str, **kw) -> SessionRecord:
    defaults = dict(
        start_time=float(i * 600), duration=10.0, honeypot_id=honeypot,
        protocol="ssh", client_ip=1000 + i, client_asn=i,
        client_country=country, n_login_attempts=1, login_success=True,
    )
    defaults.update(kw)
    return SessionRecord(**defaults)


def test_merge_remaps_interned_ids():
    a = StoreBuilder()
    a.append(_record(0, "pot-a", "US", password="alpha",
                     commands=("ls",), file_hashes=("h1",)))
    b = StoreBuilder()
    # Same strings in a different intern order, plus strings unknown to a.
    b.append(_record(1, "pot-b", "DE", password="beta",
                     commands=("wget",), uris=("http://x/a",),
                     file_hashes=("h2", "h1")))
    b.append(_record(2, "pot-a", "US", password="alpha",
                     commands=("ls",), file_hashes=("h1",)))

    merged = SessionStore.merge([a.build(), b.build()])
    assert len(merged) == 3
    pots = [merged.honeypots.value_of(int(p)) for p in merged.honeypot]
    assert pots == ["pot-a", "pot-b", "pot-a"]
    countries = [merged.countries.value_of(int(c))
                 for c in merged.client_country]
    assert countries == ["US", "DE", "US"]
    passwords = [merged.passwords.value_of(int(p))
                 for p in merged.password_id]
    assert passwords == ["alpha", "beta", "alpha"]
    hashes = [tuple(merged.hashes.value_of(h) for h in ids)
              for ids in merged.hash_ids]
    assert hashes == [("h1",), ("h2", "h1"), ("h1",)]
    scripts = [merged.scripts[int(s)].commands for s in merged.script_id]
    assert scripts == [("ls",), ("wget",), ("ls",)]
    # Rows 0 and 2 are identical sessions from different builders: after
    # remapping they must share every interned id.
    assert int(merged.script_id[0]) == int(merged.script_id[2])
    assert int(merged.password_id[0]) == int(merged.password_id[2])


def test_adopt_into_forked_builder_extends_shared_prefix():
    base = StoreBuilder()
    base.append(_record(0, "pot-a", "US", password="alpha"))
    fork = base.fork_tables()
    assert len(fork) == 0
    fork.append(_record(1, "pot-b", "DE", password="beta"))
    shard = fork.build()

    base.adopt_store(shard)
    merged = base.build()
    assert len(merged) == 2
    # The fork shared base's table prefix, so "pot-a" keeps one id and the
    # shard's new strings append after it.
    assert merged.honeypots.values()[:2] == ["pot-a", "pot-b"]


def test_collector_merge_combines_counters():
    from repro.farm.collector import FarmCollector

    one, two = FarmCollector(), FarmCollector()
    one.add_record(_record(0, "pot-a", "US"))
    two.add_record(_record(1, "pot-b", "DE"))
    two.add_record(_record(2, "pot-a", "US"))
    one.merge(two)
    assert one.sessions_total == 3
    assert one.sessions_by_honeypot == {"pot-a": 2, "pot-b": 1}
    store = one.build_store()
    assert len(store) == 3
    pots = [store.honeypots.value_of(int(p)) for p in store.honeypot]
    assert pots == ["pot-a", "pot-b", "pot-a"]
