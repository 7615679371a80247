"""Live farm driver: attacker behaviours against real honeypot sessions.

The trace generator (``repro.workload``) stamps records in bulk; this
module is the *interactive* counterpart — a small orchestration layer that
connects behaviour-scripted attackers to real honeypot state machines
through the discrete-event engine.  Used by tests, examples and anyone who
wants to watch individual sessions unfold rather than analyse millions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.agents.credentials import CredentialDictionary
from repro.farm.collector import FarmCollector
from repro.farm.deployment import DeploymentPlan, build_default_deployment
from repro.geo.registry import GeoRegistry
from repro.honeypot.honeypot import Honeypot
from repro.net.tcp import SSH_PORT, TcpModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngStream
from repro.store.store import SessionStore


@dataclass
class ScanBehavior:
    """Connect, never log in, leave (NO_CRED)."""

    port: int = SSH_PORT
    linger: Tuple[float, float] = (1.0, 20.0)


@dataclass
class ScoutBehavior:
    """Try a few failing credentials (FAIL_LOG)."""

    attempts: int = 3
    inter_attempt: Tuple[float, float] = (1.0, 4.0)


@dataclass
class IntrusionBehavior:
    """Log in and run a script (NO_CMD / CMD / CMD+URI)."""

    lines: Sequence[str] = ()
    failures_before_success: int = 1
    think_time: Tuple[float, float] = (1.5, 4.0)
    password: Optional[str] = None  # None = sample from the dictionary


Behavior = object  # union of the three dataclasses above


class LiveFarm:
    """A deployment with live honeypots, a collector, and an event loop."""

    def __init__(
        self,
        plan: Optional[DeploymentPlan] = None,
        registry: Optional[GeoRegistry] = None,
        seed: int = 1,
        n_honeypots: Optional[int] = None,
        event_tap=None,
    ):
        self.registry = registry or GeoRegistry()
        self.plan = plan or build_default_deployment(registry=self.registry)
        self.collector = FarmCollector(registry=self.registry)
        self.event_tap = event_tap

        def event_sink(event):
            self.collector.on_event(event)
            if self.event_tap is not None:
                self.event_tap(event)

        honeypots = self.plan.build_honeypots(
            event_sink=event_sink,
            summary_sink=self.collector.on_summary,
        )
        self.honeypots: List[Honeypot] = (
            honeypots[:n_honeypots] if n_honeypots else honeypots
        )
        self.engine = SimulationEngine()
        self.rng = RngStream(seed, "livefarm")
        self.credentials = CredentialDictionary(self.rng.child("creds"))
        self.tcp = TcpModel(self.rng.child("tcp"), loss_probability=0.0)
        self.launched = 0

    # -- scheduling attacks ---------------------------------------------------

    def launch(
        self,
        client_ip: int,
        honeypot_index: int,
        behavior: Behavior,
        at: float,
    ) -> None:
        """Schedule one attacker session starting at virtual second ``at``."""
        honeypot = self.honeypots[honeypot_index % len(self.honeypots)]
        self.launched += 1

        if isinstance(behavior, ScanBehavior):
            self.engine.schedule_at(
                at, lambda: self._run_scan(client_ip, honeypot, behavior)
            )
        elif isinstance(behavior, ScoutBehavior):
            self.engine.schedule_at(
                at, lambda: self._run_scout(client_ip, honeypot, behavior)
            )
        elif isinstance(behavior, IntrusionBehavior):
            self.engine.schedule_at(
                at, lambda: self._run_intrusion(client_ip, honeypot, behavior)
            )
        else:
            raise TypeError(f"unknown behavior {behavior!r}")

    def _now(self) -> float:
        return self.engine.clock.seconds

    def _run_scan(self, client_ip: int, honeypot: Honeypot,
                  behavior: ScanBehavior) -> None:
        handshake = self.tcp.handshake()
        session = honeypot.accept(
            client_ip, 40000 + self.launched, behavior.port,
            self._now() + handshake.elapsed,
        )
        linger = self.rng.uniform(*behavior.linger)
        self.engine.schedule(linger, lambda: (
            session.client_disconnect(self._now())
            if not session.is_closed else None
        ))

    def _run_scout(self, client_ip: int, honeypot: Honeypot,
                   behavior: ScoutBehavior) -> None:
        session = honeypot.accept(
            client_ip, 41000 + self.launched, SSH_PORT, self._now()
        )
        delay = self.rng.uniform(*behavior.inter_attempt)
        attempts = self.credentials.attempt_sequence(
            behavior.attempts, end_success=False
        )
        for username, password in attempts:
            self.engine.schedule(delay, lambda u=username, p=password: (
                session.try_login(u, p, self._now())
                if not session.is_closed else None
            ))
            delay += self.rng.uniform(*behavior.inter_attempt)
        self.engine.schedule(delay + 1.0, lambda: (
            session.client_disconnect(self._now())
            if not session.is_closed else None
        ))

    def _run_intrusion(self, client_ip: int, honeypot: Honeypot,
                       behavior: IntrusionBehavior) -> None:
        session = honeypot.accept(
            client_ip, 42000 + self.launched, SSH_PORT, self._now()
        )
        delay = 1.0
        for username, password in self.credentials.attempt_sequence(
            behavior.failures_before_success, end_success=False
        ):
            self.engine.schedule(delay, lambda u=username, p=password: (
                session.try_login(u, p, self._now())
                if not session.is_closed else None
            ))
            delay += self.rng.uniform(*behavior.think_time)
        password = behavior.password or self.credentials.successful_password()
        self.engine.schedule(delay, lambda p=password: (
            session.try_login("root", p, self._now())
            if not session.is_closed else None
        ))
        delay += self.rng.uniform(*behavior.think_time)
        for line in behavior.lines:
            self.engine.schedule(delay, lambda l=line: (
                session.input_line(l, self._now())
                if not session.is_closed else None
            ))
            delay += self.rng.uniform(*behavior.think_time)
        self.engine.schedule(delay + 1.0, lambda: (
            session.client_disconnect(self._now())
            if not session.is_closed else None
        ))

    # -- running ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Run the event loop; returns the number of events processed."""
        return self.engine.run(until=until)

    def harvest(self, reap_at: Optional[float] = None) -> SessionStore:
        """Time out stragglers and freeze the collected store."""
        reap_time = reap_at if reap_at is not None else (
            self.engine.clock.seconds + 10_000.0
        )
        for honeypot in self.honeypots:
            honeypot.reap(reap_time)
        return self.collector.build_store()
