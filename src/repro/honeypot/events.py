"""Cowrie-style structured honeypot events, and the session lifecycle.

Cowrie logs JSON events such as ``cowrie.session.connect``,
``cowrie.login.failed`` and ``cowrie.command.input``.  We reproduce the same
event vocabulary; the farm collector consumes these to build per-session
summary records (the form the paper's dataset takes).

The event consumers (the farm-health monitor and the streaming analytics)
share one lifecycle: :data:`SESSION_STEPS` maps each session event kind to
the step that opens, updates or closes an :class:`OpenSession` in the
consumer's ``_sessions`` dict, handing each closed session to the
consumer's ``_closed(record)``.  The paper's Section 6 taxonomy (Figure 5)
is one rule, written once per shape: :func:`session_category` for one
session, :func:`category_codes` for store columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np


class EventType(enum.Enum):
    SESSION_CONNECT = "honeypot.session.connect"
    CLIENT_VERSION = "honeypot.client.version"
    LOGIN_SUCCESS = "honeypot.login.success"
    LOGIN_FAILED = "honeypot.login.failed"
    COMMAND_INPUT = "honeypot.command.input"
    COMMAND_FAILED = "honeypot.command.failed"
    FILE_DOWNLOAD = "honeypot.session.file_download"
    FILE_UPLOAD = "honeypot.session.file_upload"
    FILE_CREATED = "honeypot.session.file_created"
    FILE_MODIFIED = "honeypot.session.file_modified"
    SESSION_CLOSED = "honeypot.session.closed"


@dataclass
class HoneypotEvent:
    """One structured log event emitted by a honeypot session."""

    event_type: EventType
    timestamp: float
    session_id: str
    honeypot_id: str
    data: Dict[str, Any] = field(default_factory=dict)


# -- the Figure 5 rule ---------------------------------------------------------

#: The session categories in code order (``classify.CATEGORIES``).
CATEGORY_NAMES = ("NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD_URI")


def session_category(attempts: Any, success: Any, commands: Any,
                     uris: Any) -> str:
    """One session's category, from the truth of its attempts, login
    success, commands and URIs (counts, flags or lists alike)."""
    if not attempts:
        return "NO_CRED"
    if not success:
        return "FAIL_LOG"
    if not commands:
        return "NO_CMD"
    return "CMD_URI" if uris else "CMD"


def category_codes(attempts: np.ndarray, success: np.ndarray,
                   commands: np.ndarray, has_uri: np.ndarray) -> np.ndarray:
    """:data:`CATEGORY_NAMES` index (int8) of each row, by
    :func:`session_category`'s rule: later assignments take precedence."""
    codes = np.full(len(has_uri), 3, dtype=np.int8)
    codes[has_uri] = 4
    codes[commands == 0] = 2
    codes[~success] = 1
    codes[attempts == 0] = 0
    return codes


#: Bulk-path ``generator.block`` categories mapped onto the taxonomy.
_BLOCK_CATEGORY = {
    "no_cred": "NO_CRED", "fail_log": "FAIL_LOG", "no_cmd": "NO_CMD",
    "bg_cmd": "CMD", "bg_uri": "CMD_URI", "singletons": "CMD",
}


def block_category(data: Dict[str, Any]) -> Optional[str]:
    """The category of a ``generator.block`` event's sessions, or None
    when its payload names none of :data:`CATEGORY_NAMES`."""
    category = _BLOCK_CATEGORY.get(str(data.get("category", "")))
    if category is None and data.get("campaign"):
        category = str(data.get("session_kind", "CMD"))
    return category if category in CATEGORY_NAMES else None


# -- the session lifecycle -----------------------------------------------------


@dataclass
class OpenSession:
    """What a consumer knows of a session between connect and close."""

    __slots__ = ("start", "client_ip", "asn", "attempted", "success",
                 "commands", "uris", "hashes")
    start: float
    client_ip: Optional[int]
    asn: Optional[int]
    attempted: bool
    success: bool
    commands: int
    uris: int
    hashes: List[str]

    def login_failed(self, data: Dict[str, Any]) -> None:
        self.attempted = True

    def login_success(self, data: Dict[str, Any]) -> None:
        self.attempted = self.success = True

    def command(self, data: Dict[str, Any]) -> None:
        self.commands += 1

    def file(self, data: Dict[str, Any]) -> None:
        sha = data.get("shasum")
        if sha:
            self.hashes.append(str(sha))

    def download(self, data: Dict[str, Any]) -> None:
        self.uris += 1
        self.file(data)


#: ``step(consumer, ts, session, data)``; the consumer has a ``_sessions``
#: dict and a ``_closed(record)`` method.
Step = Callable[[Any, Any, str, Dict[str, Any]], None]


def _open(consumer: Any, ts: Any, session: str, data: Dict[str, Any]) -> None:
    if session:
        src_ip = data.get("src_ip")
        src_asn = data.get("src_asn")
        # Positional: a keyword call costs three times as much per session.
        consumer._sessions[session] = OpenSession(
            float(ts),
            None if src_ip is None else int(src_ip),
            None if src_asn is None else int(src_asn),
            False, False, 0, 0, [],  # attempted, success, commands, uris, hashes
        )


def _on_open(update: Callable[[OpenSession, Dict[str, Any]], None]) -> Step:
    """The step that applies ``update`` to the event's open session."""
    def step(consumer: Any, ts: Any, session: str, data: Dict[str, Any]) -> None:
        record = consumer._sessions.get(session)
        if record is not None:
            update(record, data)
    return step


def _close(consumer: Any, ts: Any, session: str, data: Dict[str, Any]) -> None:
    record = consumer._sessions.pop(session, None)
    if record is not None:
        consumer._closed(record)


#: Session event kind -> lifecycle step.  Events of a session never
#: opened (or already closed) change nothing.
SESSION_STEPS: Dict[str, Step] = {
    EventType.SESSION_CONNECT.value: _open,
    EventType.LOGIN_FAILED.value: _on_open(OpenSession.login_failed),
    EventType.LOGIN_SUCCESS.value: _on_open(OpenSession.login_success),
    EventType.COMMAND_INPUT.value: _on_open(OpenSession.command),
    EventType.FILE_DOWNLOAD.value: _on_open(OpenSession.download),
    EventType.FILE_CREATED.value: _on_open(OpenSession.file),
    EventType.FILE_MODIFIED.value: _on_open(OpenSession.file),
    EventType.SESSION_CLOSED.value: _close,
}
