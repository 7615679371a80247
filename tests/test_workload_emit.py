"""Tests for the session emitter's credential/version samplers."""

import numpy as np
import pytest

from repro.honeypot.auth import AuthPolicy
from repro.simulation.rng import RngStream
from repro.store.store import StoreBuilder
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
        emitter.append_block(
            start_time=np.array([0.0, 1.0, 2.0]),
            duration=np.array([1.0, 1.0, 1.0]),
            honeypot=[emitter.builder.honeypots.intern("h")] * n,
            protocol=np.zeros(n, dtype=np.uint8),
            client_ip=np.array([1, 2, 3], dtype=np.uint32),
            client_asn=np.array([5, 5, 5], dtype=np.int32),
            client_country=np.array(
                [emitter.builder.countries.intern("US")] * n, dtype=np.int32),
            n_attempts=np.zeros(n, dtype=np.uint16),
            login_success=np.zeros(n, dtype=bool),
            script_id=[-1] * n,
            password_id=np.full(n, -1, dtype=np.int32),
            username_id=np.full(n, -1, dtype=np.int32),
            hash_ids=[()] * n,
            close_reason=np.zeros(n, dtype=np.uint8),
            version_id=np.full(n, -1, dtype=np.int32),
        )
        store = emitter.builder.build()
        assert len(store) == 3
        assert store.record(2).client_ip == 3


class TestProtocolConstants:
    def test_protocol_for_port(self):
        from repro.honeypot.protocol import Protocol
        assert Protocol.for_port(22) is Protocol.SSH
        assert Protocol.for_port(23) is Protocol.TELNET
        with pytest.raises(ValueError):
            Protocol.for_port(80)

    def test_banners(self):
        from repro.honeypot.protocol import Protocol
        assert Protocol.SSH.banner.startswith("SSH-2.0-")
        assert "login" in Protocol.TELNET.banner

    def test_ports(self):
        from repro.honeypot.protocol import Protocol
        assert Protocol.SSH.port == 22
        assert Protocol.TELNET.port == 23
