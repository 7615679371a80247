"""The honeyfarm's login policy.

The studied honeypots allow password authentication with username ``root``
and any password except the literal string ``"root"``.  Public-key
authentication is not supported.  Telnet uses the same rule.  A session is
disconnected after a configurable number of failed attempts (three for SSH,
mirroring the paper's observation that most FAIL_LOG sessions end after
three tries).
"""

from __future__ import annotations

from dataclasses import dataclass

REQUIRED_USERNAME = "root"
REJECTED_PASSWORD = "root"
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class AuthResult:
    success: bool
    username: str
    password: str
    reason: str = ""


class AuthPolicy:
    """Accepts (root, anything-but-"root") password logins."""

    def __init__(
        self,
        required_username: str = REQUIRED_USERNAME,
        rejected_password: str = REJECTED_PASSWORD,
        max_attempts: int = MAX_ATTEMPTS,
    ):
        self.required_username = required_username
        self.rejected_password = rejected_password
        self.max_attempts = max_attempts

    def check_password(self, username: str, password: str) -> AuthResult:
        if username != self.required_username:
            return AuthResult(False, username, password, reason="bad-username")
        if password == self.rejected_password:
            return AuthResult(False, username, password, reason="rejected-password")
        if password == "":
            return AuthResult(False, username, password, reason="empty-password")
        return AuthResult(True, username, password)
