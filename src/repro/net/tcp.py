"""A minimal TCP connection model.

Each honeyfarm session starts with a completed TCP three-way handshake on
port 22 (SSH) or 23 (Telnet) — this is what lets the paper treat client
addresses as non-spoofed.  We model only the handshake: whether it
completes, and its RTT-dependent latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.rng import RngStream

SSH_PORT = 22
TELNET_PORT = 23


@dataclass
class HandshakeResult:
    """Outcome of a three-way handshake attempt."""

    success: bool
    rtt: float
    elapsed: float


class TcpModel:
    """Generates handshake outcomes with RTT drawn from distance class.

    ``rtt_base`` approximates propagation delay between client and honeypot
    regions; jitter is lognormal.  Handshakes essentially always succeed in
    the dataset (only successful ones create sessions), but the model keeps a
    small loss probability so the interactive path exercises the failure
    branch too.
    """

    #: Rough one-way RTT bases (seconds) by geographic relationship.
    RTT_SAME_COUNTRY = 0.015
    RTT_SAME_CONTINENT = 0.045
    RTT_CROSS_CONTINENT = 0.160

    def __init__(self, rng: RngStream, loss_probability: float = 0.002):
        self.rng = rng
        self.loss_probability = loss_probability

    def rtt_for(self, same_country: bool, same_continent: bool) -> float:
        if same_country:
            base = self.RTT_SAME_COUNTRY
        elif same_continent:
            base = self.RTT_SAME_CONTINENT
        else:
            base = self.RTT_CROSS_CONTINENT
        jitter = self.rng.lognormal(0.0, 0.35)
        return base * jitter

    def handshake(self, same_country: bool = False, same_continent: bool = False) -> HandshakeResult:
        rtt = self.rtt_for(same_country, same_continent)
        if self.rng.bernoulli(self.loss_probability):
            # SYN or SYN-ACK lost and not retried: no session is created.
            return HandshakeResult(success=False, rtt=rtt, elapsed=3.0)
        # 1.5 RTT to complete SYN / SYN-ACK / ACK.
        return HandshakeResult(success=True, rtt=rtt, elapsed=1.5 * rtt)
