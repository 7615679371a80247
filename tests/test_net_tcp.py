"""Tests for the TCP handshake model."""

import pytest

from repro.net.tcp import SSH_PORT, TELNET_PORT, TcpModel
from repro.simulation.rng import RngStream


class TestTcpModel:
    def test_handshake_mostly_succeeds(self):
        model = TcpModel(RngStream(1, "tcp"), loss_probability=0.0)
        results = [model.handshake() for _ in range(50)]
        assert all(r.success for r in results)

    def test_handshake_always_fails_at_full_loss(self):
        model = TcpModel(RngStream(2, "tcp"), loss_probability=1.0)
        assert not model.handshake().success

    def test_rtt_orders_by_distance(self):
        model = TcpModel(RngStream(3, "tcp"))
        same_country = sum(model.rtt_for(True, True) for _ in range(200))
        cross = sum(model.rtt_for(False, False) for _ in range(200))
        assert cross > same_country

    def test_handshake_elapsed_is_1_5_rtt(self):
        model = TcpModel(RngStream(4, "tcp"), loss_probability=0.0)
        result = model.handshake()
        assert result.elapsed == pytest.approx(1.5 * result.rtt)

    def test_ports(self):
        assert SSH_PORT == 22
        assert TELNET_PORT == 23
