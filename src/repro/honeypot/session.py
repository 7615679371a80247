"""The honeypot session state machine.

One session = one TCP connection on port 22 or 23.  The machine tracks the
authentication phase (bounded by a no-login timeout and a maximum number of
attempts), the shell phase (bounded by the three-minute interaction timeout,
which is extended while a download is in flight), and emits Cowrie-style
events throughout.  The :class:`SessionSummary` produced at close time is
the per-session record the farm collector stores — the same shape as the
paper's dataset rows.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.honeypot.auth import AuthPolicy, AuthResult
from repro.honeypot.events import EventType, HoneypotEvent, session_category
from repro.obs import inc as _metric_inc
from repro.obs import trace as _trace
from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.protocol import Protocol
from repro.honeypot.shell.base import CommandRegistry
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.resolver import UriResolver
from repro.honeypot.shell.shell import EmulatedShell, ExecutionResult

_session_counter = itertools.count(1)


class SessionState(enum.Enum):
    CONNECTED = "connected"  # TCP established, no successful login yet
    SHELL = "shell"  # logged in, shell available
    CLOSED = "closed"


class CloseReason(enum.Enum):
    CLIENT_DISCONNECT = "client-disconnect"
    AUTH_TIMEOUT = "auth-timeout"
    IDLE_TIMEOUT = "idle-timeout"
    TOO_MANY_ATTEMPTS = "too-many-attempts"
    CLIENT_EXIT = "client-exit"


@dataclass
class SessionConfig:
    """Timeout / policy knobs (defaults match the studied deployment)."""

    #: Seconds a connected-but-unauthenticated client may linger.
    no_login_timeout: float = 120.0
    #: Idle timeout after successful login ("three minutes" in the paper).
    interaction_timeout: float = 180.0
    auth_policy: AuthPolicy = field(default_factory=AuthPolicy)


@dataclass
class SessionSummary:
    """Per-session record: what the honeyfarm database stores."""

    session_id: str
    honeypot_id: str
    protocol: Protocol
    client_ip: int
    client_port: int
    honeypot_ip: int
    start_time: float
    end_time: float
    close_reason: CloseReason
    client_version: str = ""
    credentials: List[Tuple[str, str]] = field(default_factory=list)
    login_success: bool = False
    commands: List[str] = field(default_factory=list)
    known_commands: List[bool] = field(default_factory=list)
    uris: List[str] = field(default_factory=list)
    file_hashes: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class HoneypotSession:
    """State machine for one client connection."""

    def __init__(
        self,
        honeypot_id: str,
        honeypot_ip: int,
        protocol: Protocol,
        client_ip: int,
        client_port: int,
        start_time: float,
        config: Optional[SessionConfig] = None,
        resolver: Optional[UriResolver] = None,
        registry: Optional[CommandRegistry] = None,
        event_sink: Optional[Callable[[HoneypotEvent], None]] = None,
        session_id: Optional[str] = None,
    ):
        # Honeypots number their own sessions; the counter serves the rest.
        self.session_id = session_id or f"s{next(_session_counter):010x}"
        #: Flight-recorder identity for this connection: every event the
        #: session emits carries it, so a trace groups per session.
        self.trace_id = f"session:{self.session_id}"
        self.honeypot_id = honeypot_id
        self.honeypot_ip = honeypot_ip
        self.protocol = protocol
        self.client_ip = client_ip
        self.client_port = client_port
        self.start_time = start_time
        self.config = config or SessionConfig()
        self.state = SessionState.CONNECTED
        self._event_sink = event_sink
        self._registry = registry

        self.fs = FakeFilesystem()
        self.shell_context = ShellContext(fs=self.fs, now=start_time)
        if resolver is not None:
            self.shell_context.resolver = resolver
        self._shell = EmulatedShell(self.shell_context, registry=registry)

        self.client_version = ""
        self.credentials: List[Tuple[str, str]] = []
        self.login_success = False
        self.commands: List[str] = []
        self.known_commands: List[bool] = []
        self.uris: List[str] = []
        self.file_hashes: List[str] = []
        self.close_reason: Optional[CloseReason] = None
        self.end_time: Optional[float] = None

        #: Absolute time at which the honeypot will time the session out.
        self.deadline = start_time + self.config.no_login_timeout

        self._emit(EventType.SESSION_CONNECT, start_time, {
            "src_ip": client_ip,
            "src_port": client_port,
            "dst_port": protocol.port,
            "protocol": protocol.value,
        })

    # -- event plumbing ----------------------------------------------------

    def _emit(self, event_type: EventType, now: float, data: dict) -> None:
        _trace.emit(event_type.value, trace_id=self.trace_id, sim_time=now,
                    sensor=self.honeypot_id, session=self.session_id, **data)
        if self._event_sink is not None:
            self._event_sink(HoneypotEvent(
                event_type=event_type,
                timestamp=now,
                session_id=self.session_id,
                honeypot_id=self.honeypot_id,
                data=data,
            ))

    def _require_state(self, *states: SessionState) -> None:
        if self.state not in states:
            raise RuntimeError(
                f"operation invalid in state {self.state.value} "
                f"(expected {'/'.join(s.value for s in states)})"
            )

    # -- client-driven transitions ------------------------------------------

    def offer_client_version(self, version: str, now: float) -> None:
        """Record the SSH client version string from the handshake."""
        self._require_state(SessionState.CONNECTED)
        self.client_version = version
        self._emit(EventType.CLIENT_VERSION, now, {"version": version})

    def try_login(self, username: str, password: str, now: float) -> AuthResult:
        """One password attempt. May close the session on repeated failure."""
        self._require_state(SessionState.CONNECTED)
        self._check_not_past_deadline(now)
        _metric_inc("honeypot.auth_attempts")
        result = self.config.auth_policy.check_password(username, password)
        self.credentials.append((username, password))
        if result.success:
            self.login_success = True
            self.state = SessionState.SHELL
            self.deadline = now + self.config.interaction_timeout
            self._emit(EventType.LOGIN_SUCCESS, now, {
                "username": username, "password": password,
            })
        else:
            self._emit(EventType.LOGIN_FAILED, now, {
                "username": username, "password": password, "reason": result.reason,
            })
            if (
                self.protocol is Protocol.SSH
                and len(self.credentials) >= self.config.auth_policy.max_attempts
            ):
                self._close(now, CloseReason.TOO_MANY_ATTEMPTS)
        return result

    def input_line(self, line: str, now: float) -> ExecutionResult:
        """Execute one shell input line from the client."""
        self._require_state(SessionState.SHELL)
        self._check_not_past_deadline(now)
        self.shell_context.now = now
        result = self._shell.execute(line)

        for record in result.commands:
            self.commands.append(record.text)
            self.known_commands.append(record.known)
            self._emit(EventType.COMMAND_INPUT, now, {
                "input": record.text, "known": record.known,
            })
            for uri in record.uris:
                if uri not in self.uris:
                    self.uris.append(uri)

        download_time = 0.0
        for download in result.downloads:
            download_time += download.duration
            self._emit(EventType.FILE_DOWNLOAD, now, {
                "url": download.uri,
                "shasum": download.sha256,
                "size": download.size,
                "success": download.success,
            })
        for change in result.file_changes:
            self.file_hashes.append(change.sha256)
            _metric_inc("honeypot.hashes_recorded")
            event = EventType.FILE_CREATED if change.created else EventType.FILE_MODIFIED
            self._emit(event, now, {
                "path": change.path, "shasum": change.sha256, "size": change.size,
            })

        # The idle timeout restarts at each input; while a download is in
        # flight the timer is suspended, which is how CMD+URI sessions can
        # outlive the three-minute limit.
        self.deadline = now + download_time + self.config.interaction_timeout

        if result.exit_requested:
            self._close(now + download_time, CloseReason.CLIENT_EXIT)
        return result

    def client_disconnect(self, now: float) -> None:
        """Client tears the TCP connection down (FIN/RST)."""
        if self.state is SessionState.CLOSED:
            return
        self._close(now, CloseReason.CLIENT_DISCONNECT)

    # -- honeypot-driven transitions -----------------------------------------

    def check_timeout(self, now: float) -> bool:
        """Close the session if its deadline has passed. True if closed."""
        if self.state is SessionState.CLOSED:
            return True
        if now >= self.deadline:
            reason = (
                CloseReason.AUTH_TIMEOUT
                if self.state is SessionState.CONNECTED
                else CloseReason.IDLE_TIMEOUT
            )
            _metric_inc(f"honeypot.timeouts.{reason.value}")
            self._close(self.deadline, reason)
            return True
        return False

    def _check_not_past_deadline(self, now: float) -> None:
        if now >= self.deadline:
            self.check_timeout(now)
            raise RuntimeError("session already timed out")

    def _close(self, now: float, reason: CloseReason) -> None:
        self.state = SessionState.CLOSED
        self.close_reason = reason
        self.end_time = now
        category = session_category(self.credentials, self.login_success,
                                    self.commands, self.uris)
        _metric_inc(f"honeypot.sessions.{category}")
        self._emit(EventType.SESSION_CLOSED, now, {
            "reason": reason.value,
            "duration": now - self.start_time,
        })

    # -- results ---------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self.state is SessionState.CLOSED

    def summary(self) -> SessionSummary:
        """Build the per-session record (only valid once closed)."""
        if not self.is_closed:
            raise RuntimeError("session still open; no summary yet")
        return SessionSummary(
            session_id=self.session_id,
            honeypot_id=self.honeypot_id,
            protocol=self.protocol,
            client_ip=self.client_ip,
            client_port=self.client_port,
            honeypot_ip=self.honeypot_ip,
            start_time=self.start_time,
            end_time=self.end_time,
            close_reason=self.close_reason,
            client_version=self.client_version,
            credentials=list(self.credentials),
            login_success=self.login_success,
            commands=list(self.commands),
            known_commands=list(self.known_commands),
            uris=list(self.uris),
            file_hashes=list(self.file_hashes),
        )
