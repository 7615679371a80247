"""A from-scratch medium-interaction SSH/Telnet honeypot (Cowrie-like).

This package implements the honeypot software that the studied honeyfarm
runs: a medium-interaction honeypot that

* accepts TCP connections on the SSH (22) and Telnet (23) ports,
* allows password logins as ``root`` with any password except ``"root"``
  (no public-key auth), recording every attempt,
* on success presents an emulated Unix shell that implements "known"
  commands and records "unknown" ones verbatim,
* records a URI whenever a command references a remote resource,
* records a content hash whenever a command creates or modifies a file,
* terminates sessions on client disconnect or on a three-minute timeout
  (the timeout is reset while a remote download is in flight).

The session state machine emits Cowrie-style structured events which the
farm collector aggregates into per-session summary records.
"""

from repro.honeypot.auth import AuthPolicy, AuthResult
from repro.honeypot.events import EventType, HoneypotEvent
from repro.honeypot.filesystem import FakeFilesystem, FileEntry, hash_content
from repro.honeypot.session import (
    CloseReason,
    HoneypotSession,
    SessionConfig,
    SessionSummary,
)
from repro.honeypot.honeypot import Honeypot, HoneypotConfig
from repro.honeypot.protocol import Protocol
from repro.honeypot.uri import extract_uris

__all__ = [
    "AuthPolicy",
    "AuthResult",
    "EventType",
    "HoneypotEvent",
    "FakeFilesystem",
    "FileEntry",
    "hash_content",
    "CloseReason",
    "HoneypotSession",
    "SessionConfig",
    "SessionSummary",
    "Honeypot",
    "HoneypotConfig",
    "Protocol",
    "extract_uris",
]
