"""Transfer objects for session records.

:class:`SessionRecord` is the row-shaped view of one session — what goes in
and out of the columnar store and onto disk.  :class:`CommandScript` is the
interned unit of client interaction: the ordered command list a client ran,
together with the URIs it referenced.  Campaigns reuse one script across
millions of sessions, which is exactly why interning pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.honeypot.session import CloseReason, SessionSummary

#: Canonical fixed-dtype store columns, in builder/persistence order.
#: One place defines the on-disk and in-memory layout; the
#: :class:`~repro.store.store.StoreBuilder` accumulates exactly these and
#: ``repro.store.npz`` persists them (plus the derived ``n_commands`` /
#: ``has_uri`` script columns and the CSR hash column), narrowed on disk
#: and widened back to these dtypes on load.
STORE_COLUMN_DTYPES = {
    "start_time": np.float64,
    "duration": np.float32,
    "honeypot": np.int32,
    "protocol": np.uint8,
    "client_ip": np.uint32,
    "client_asn": np.int32,
    "client_country": np.int32,
    "n_attempts": np.uint16,
    "login_success": np.bool_,
    "script_id": np.int32,
    "password_id": np.int32,
    "username_id": np.int32,
    "close_reason": np.uint8,
    "version_id": np.int32,
}


@dataclass(frozen=True)
class CommandScript:
    """An interned client interaction script."""

    commands: Tuple[str, ...]
    uris: Tuple[str, ...] = ()

    @property
    def has_uri(self) -> bool:
        return bool(self.uris)

    def key(self) -> Tuple:
        return (self.commands, self.uris)


@dataclass
class SessionRecord:
    """One honeyfarm session, row-shaped."""

    start_time: float
    duration: float
    honeypot_id: str
    protocol: str  # "ssh" | "telnet"
    client_ip: int
    client_asn: int
    client_country: str
    n_login_attempts: int
    login_success: bool
    username: str = ""
    password: str = ""  # successful password, or last attempted
    commands: Tuple[str, ...] = ()
    uris: Tuple[str, ...] = ()
    file_hashes: Tuple[str, ...] = ()
    close_reason: str = CloseReason.CLIENT_DISCONNECT.value
    client_version: str = ""

    @property
    def day(self) -> int:
        return int(self.start_time // 86_400)

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    @classmethod
    def from_summary(
        cls,
        summary: SessionSummary,
        client_asn: int = -1,
        client_country: str = "",
    ) -> "SessionRecord":
        """Convert a live honeypot :class:`SessionSummary` to a record."""
        username, password = "", ""
        if summary.credentials:
            username, password = summary.credentials[-1]
            if summary.login_success:
                for user, pw in summary.credentials:
                    # The successful attempt is the last one by construction,
                    # but be robust to replayed credential lists.
                    username, password = user, pw
        return cls(
            start_time=summary.start_time,
            duration=summary.duration,
            honeypot_id=summary.honeypot_id,
            protocol=summary.protocol.value,
            client_ip=summary.client_ip,
            client_asn=client_asn,
            client_country=client_country,
            n_login_attempts=len(summary.credentials),
            login_success=summary.login_success,
            username=username,
            password=password,
            commands=tuple(summary.commands),
            uris=tuple(summary.uris),
            file_hashes=tuple(summary.file_hashes),
            close_reason=summary.close_reason.value,
            client_version=summary.client_version,
        )
