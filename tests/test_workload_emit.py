"""Tests for the session emitter: samplers and the block write path."""

import numpy as np
import pytest

import repro
from repro.honeypot.auth import AuthPolicy
from repro.obs import get_metrics
from repro.simulation.rng import RngStream
from repro.store.store import StoreBuilder
from repro.workload import ScenarioConfig
from repro.workload.emit import SessionEmitter


@pytest.fixture
def emitter():
    return SessionEmitter(StoreBuilder())


class TestSamplers:
    def test_success_passwords_pass_policy(self, emitter):
        rng = RngStream(1, "s")
        policy = AuthPolicy()
        ids = emitter.success_passwords(rng, 300)
        for pid in ids:
            password = emitter.builder.passwords.value_of(int(pid))
            assert policy.check_password("root", password).success

    def test_fail_credentials_fail_policy(self, emitter):
        rng = RngStream(2, "f")
        policy = AuthPolicy()
        users, passwords = emitter.fail_credentials(rng, 300)
        for uid, pid in zip(users, passwords):
            username = emitter.builder.usernames.value_of(int(uid))
            password = emitter.builder.passwords.value_of(int(pid))
            assert not policy.check_password(username, password).success

    def test_fail_credentials_mix_root_and_others(self, emitter):
        rng = RngStream(3, "f")
        users, _ = emitter.fail_credentials(rng, 500)
        names = {emitter.builder.usernames.value_of(int(u)) for u in users}
        assert "root" in names
        assert len(names) > 3

    def test_versions_only_for_ssh(self, emitter):
        rng = RngStream(4, "v")
        protocol = np.array([0, 0, 1, 1], dtype=np.uint8)
        versions = emitter.client_versions(rng, 4, protocol)
        assert (versions[protocol == 1] == -1).all()

    def test_version_offer_rate(self, emitter):
        rng = RngStream(5, "v")
        protocol = np.zeros(2000, dtype=np.uint8)  # all SSH
        versions = emitter.client_versions(rng, 2000, protocol)
        rate = (versions >= 0).mean()
        assert 0.6 < rate < 0.85

    def test_append_block_through_emitter(self, emitter):
        n = 3
        emitter.builder.append_block(
            start_time=np.array([0.0, 1.0, 2.0]),
            duration=np.array([1.0, 1.0, 1.0]),
            honeypot_id=[emitter.builder.honeypots.intern("h")] * n,
            protocol=np.zeros(n, dtype=np.uint8),
            client_ip=np.array([1, 2, 3], dtype=np.uint32),
            client_asn=np.array([5, 5, 5], dtype=np.int32),
            client_country_id=np.array(
                [emitter.builder.countries.intern("US")] * n, dtype=np.int32),
            n_attempts=np.zeros(n, dtype=np.uint16),
            login_success=np.zeros(n, dtype=bool),
            script_id=[-1] * n,
            password_id=np.full(n, -1, dtype=np.int32),
            username_id=np.full(n, -1, dtype=np.int32),
            hash_ids=[()] * n,
            close_reason_id=np.zeros(n, dtype=np.uint8),
            version_id=np.full(n, -1, dtype=np.int32),
        )
        store = emitter.builder.build()
        assert len(store) == 3
        assert store.record(2).client_ip == 3


class TestOneBuffer:
    def test_every_session_is_appended_once(self):
        # Shard rows reach the store through StoreBuilder.append_block
        # only; the merge adopts them, which is not an append.
        config = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)
        before = get_metrics().counter("store.sessions_appended")
        store = repro.generate(config, backend="inline", workers=1).store
        after = get_metrics().counter("store.sessions_appended")
        assert after - before == len(store) > 0


class TestProtocolConstants:
    def test_protocol_for_port(self):
        from repro.honeypot.protocol import Protocol
        assert Protocol.for_port(22) is Protocol.SSH
        assert Protocol.for_port(23) is Protocol.TELNET
        with pytest.raises(ValueError):
            Protocol.for_port(80)

    def test_ports(self):
        from repro.honeypot.protocol import Protocol
        assert Protocol.SSH.port == 22
        assert Protocol.TELNET.port == 23
