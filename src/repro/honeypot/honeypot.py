"""A honeypot instance: identity, placement, and connection handling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.honeypot.events import HoneypotEvent
from repro.honeypot.protocol import Protocol
from repro.obs import inc as _metric_inc
from repro.obs import trace as _trace
from repro.honeypot.session import HoneypotSession, SessionConfig, SessionSummary
from repro.honeypot.shell.resolver import UriResolver


@dataclass
class HoneypotConfig:
    """Identity and placement of one honeypot in the farm."""

    honeypot_id: str
    ip: int
    country: str
    asn: int
    session_config: SessionConfig = field(default_factory=SessionConfig)
    #: Maximum simultaneous live sessions (0 = unlimited). Real deployments
    #: cap concurrency so a connection flood cannot exhaust the host.
    max_concurrent_sessions: int = 0


class Honeypot:
    """Accepts connections on ports 22/23 and manages live sessions."""

    def __init__(
        self,
        config: HoneypotConfig,
        event_sink: Optional[Callable[[HoneypotEvent], None]] = None,
        summary_sink: Optional[Callable[[SessionSummary], None]] = None,
        resolver: Optional[UriResolver] = None,
    ):
        self.config = config
        self._event_sink = event_sink
        self._summary_sink = summary_sink
        self._resolver = resolver
        self._live: Dict[str, HoneypotSession] = {}
        self.sessions_accepted = 0
        self.sessions_refused = 0

    @property
    def honeypot_id(self) -> str:
        return self.config.honeypot_id

    @property
    def ip(self) -> int:
        return self.config.ip

    @property
    def country(self) -> str:
        return self.config.country

    @property
    def asn(self) -> int:
        return self.config.asn

    def accept(
        self,
        client_ip: int,
        client_port: int,
        dst_port: int,
        now: float,
        resolver: Optional[UriResolver] = None,
    ) -> HoneypotSession:
        """Complete a handshake on ``dst_port`` and open a session.

        Raises :class:`ConnectionRefusedError` when the concurrency cap is
        reached — the TCP-level refusal a flooded host produces.
        """
        limit = self.config.max_concurrent_sessions
        if limit and len(self._live) >= limit:
            self.sessions_refused += 1
            _metric_inc("honeypot.sessions_refused")
            _trace.emit("honeypot.refused", sim_time=now,
                        sensor=self.honeypot_id, src_ip=client_ip,
                        dst_port=dst_port, live=len(self._live))
            raise ConnectionRefusedError(
                f"{self.honeypot_id}: session limit {limit} reached"
            )
        protocol = Protocol.for_port(dst_port)
        session = HoneypotSession(
            honeypot_id=self.honeypot_id,
            honeypot_ip=self.ip,
            protocol=protocol,
            client_ip=client_ip,
            client_port=client_port,
            start_time=now,
            config=self.config.session_config,
            resolver=resolver if resolver is not None else self._resolver,
            event_sink=self._event_sink,
            session_id=f"{self.honeypot_id}-s{self.sessions_accepted + 1:06x}",
        )
        self._live[session.session_id] = session
        self.sessions_accepted += 1
        _metric_inc("honeypot.sessions_accepted")
        return session

    def reap(self, now: float) -> List[SessionSummary]:
        """Time out overdue sessions and collect summaries of closed ones."""
        summaries: List[SessionSummary] = []
        for session_id in list(self._live):
            session = self._live[session_id]
            session.check_timeout(now)
            if session.is_closed:
                summary = session.summary()
                summaries.append(summary)
                if self._summary_sink is not None:
                    self._summary_sink(summary)
                del self._live[session_id]
        return summaries
