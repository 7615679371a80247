"""Protocol front-ends: SSH and Telnet.

The honeypot listens on both ports; the dataset distinguishes sessions only
by protocol, plus the client's SSH version string when one is offered during
the SSH handshake.
"""

from __future__ import annotations

import enum

from repro.net.tcp import SSH_PORT, TELNET_PORT


class Protocol(enum.Enum):
    SSH = "ssh"
    TELNET = "telnet"

    @property
    def port(self) -> int:
        return SSH_PORT if self is Protocol.SSH else TELNET_PORT

    @classmethod
    def for_port(cls, port: int) -> "Protocol":
        if port == SSH_PORT:
            return cls.SSH
        if port == TELNET_PORT:
            return cls.TELNET
        raise ValueError(f"honeypot does not listen on port {port}")


#: SSH client version strings commonly seen from scanning/bot tooling.
COMMON_CLIENT_VERSIONS = [
    "SSH-2.0-libssh2_1.4.3",
    "SSH-2.0-libssh2_1.8.0",
    "SSH-2.0-libssh-0.6.3",
    "SSH-2.0-Go",
    "SSH-2.0-PUTTY",
    "SSH-2.0-OpenSSH_7.3",
    "SSH-2.0-paramiko_2.7.2",
    "SSH-2.0-JSCH-0.1.54",
    "SSH-2.0-sshlib-0.1",
    "SSH-2.0-8.36 FlowSsh",
]
