"""Network substrate: IPv4 addressing, prefixes, pools, and a TCP model.

The honeyfarm's dataset is keyed by client IPv4 addresses; sessions begin
with a completed TCP handshake (which is why the paper can rule out spoofed
sources).  This package provides a compact integer-backed IPv4
representation, prefix arithmetic, address-pool allocators used to place
honeypots and attackers into address space, and a small TCP handshake model
used by the interactive simulation path.
"""

from repro.net.ip import IPv4Prefix, parse_ip, format_ip
from repro.net.pools import AddressPool
from repro.net.tcp import HandshakeResult, TcpModel, SSH_PORT, TELNET_PORT

__all__ = [
    "IPv4Prefix",
    "parse_ip",
    "format_ip",
    "AddressPool",
    "HandshakeResult",
    "TcpModel",
    "SSH_PORT",
    "TELNET_PORT",
]
