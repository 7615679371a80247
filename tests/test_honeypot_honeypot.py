"""Tests for the honeypot instance (accept/reap)."""

import pytest

from repro.honeypot.honeypot import Honeypot, HoneypotConfig
from repro.honeypot.protocol import Protocol
from repro.net.tcp import SSH_PORT, TELNET_PORT


def make_honeypot(**kwargs):
    return Honeypot(HoneypotConfig("hp-007", 0x01020304, "SG", 64999), **kwargs)


class TestAccept:
    def test_accept_ssh(self):
        hp = make_honeypot()
        session = hp.accept(1, 40000, SSH_PORT, now=0.0)
        assert session.protocol is Protocol.SSH
        assert len(hp._live) == 1

    def test_accept_telnet(self):
        hp = make_honeypot()
        session = hp.accept(1, 40000, TELNET_PORT, now=0.0)
        assert session.protocol is Protocol.TELNET

    def test_reject_other_port(self):
        hp = make_honeypot()
        with pytest.raises(ValueError):
            hp.accept(1, 40000, 80, now=0.0)

    def test_sessions_accepted_counter(self):
        hp = make_honeypot()
        hp.accept(1, 1, SSH_PORT, 0.0)
        hp.accept(2, 2, SSH_PORT, 0.0)
        assert hp.sessions_accepted == 2

    def test_identity(self):
        hp = make_honeypot()
        assert hp.honeypot_id == "hp-007"
        assert hp.country == "SG"
        assert hp.asn == 64999
        assert hp.ip == 0x01020304

    def test_session_inherits_identity(self):
        hp = make_honeypot()
        session = hp.accept(1, 1, SSH_PORT, 0.0)
        assert session.honeypot_id == "hp-007"
        assert session.honeypot_ip == hp.ip


class TestConcurrencyCap:
    def test_refuses_over_limit(self):
        hp = Honeypot(HoneypotConfig("hp-c", 1, "US", 1,
                                     max_concurrent_sessions=2))
        hp.accept(1, 1, SSH_PORT, 0.0)
        hp.accept(2, 2, SSH_PORT, 0.0)
        with pytest.raises(ConnectionRefusedError):
            hp.accept(3, 3, SSH_PORT, 0.0)
        assert hp.sessions_refused == 1
        assert hp.sessions_accepted == 2

    def test_reap_frees_slots(self):
        hp = Honeypot(HoneypotConfig("hp-c", 1, "US", 1,
                                     max_concurrent_sessions=1))
        session = hp.accept(1, 1, SSH_PORT, 0.0)
        session.client_disconnect(1.0)
        hp.reap(2.0)
        hp.accept(2, 2, SSH_PORT, 3.0)  # slot available again
        assert hp.sessions_accepted == 2

    def test_unlimited_by_default(self):
        hp = make_honeypot()
        for i in range(50):
            hp.accept(i, i, SSH_PORT, 0.0)
        assert len(hp._live) == 50
        assert hp.sessions_refused == 0


class TestReap:
    def test_reap_closed_sessions(self):
        hp = make_honeypot()
        session = hp.accept(1, 1, SSH_PORT, 0.0)
        session.client_disconnect(5.0)
        summaries = hp.reap(6.0)
        assert len(summaries) == 1
        assert len(hp._live) == 0

    def test_reap_times_out_overdue(self):
        hp = make_honeypot()
        hp.accept(1, 1, SSH_PORT, 0.0)
        summaries = hp.reap(1000.0)
        assert len(summaries) == 1
        assert summaries[0].close_reason.value == "auth-timeout"

    def test_reap_keeps_live(self):
        hp = make_honeypot()
        hp.accept(1, 1, SSH_PORT, 0.0)
        assert hp.reap(10.0) == []
        assert len(hp._live) == 1

    def test_summary_sink_called(self):
        collected = []
        hp = make_honeypot(summary_sink=collected.append)
        session = hp.accept(1, 1, SSH_PORT, 0.0)
        session.client_disconnect(1.0)
        hp.reap(2.0)
        assert len(collected) == 1
        assert collected[0].honeypot_id == "hp-007"

    def test_event_sink_wired(self):
        events = []
        hp = make_honeypot(event_sink=events.append)
        hp.accept(1, 1, SSH_PORT, 0.0)
        assert events  # connect event flowed through
