"""Integer-backed IPv4 addresses and prefixes.

The trace contains millions of client addresses, so addresses are plain
``int`` values everywhere.  This module provides parsing/formatting and CIDR
prefix arithmetic without pulling in :mod:`ipaddress` object overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_IPV4 = 0xFFFFFFFF


def parse_ip(text: str) -> int:
    """Parse dotted-quad IPv4 text into its integer value.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format an integer IPv4 value as dotted-quad text.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"IPv4 integer out of range: {value!r}")
    return f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


@dataclass(frozen=True, order=True)
class IPv4Prefix:
    """A CIDR prefix, e.g. ``192.0.2.0/24``."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"invalid prefix length {self.length!r}")
        mask = self.mask
        if self.network & ~mask & MAX_IPV4:
            raise ValueError(
                f"network {format_ip(self.network)} has host bits set for /{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        try:
            addr_text, len_text = text.split("/")
        except ValueError:
            raise ValueError(f"invalid prefix {text!r}") from None
        return cls(parse_ip(addr_text), int(len_text))

    @property
    def mask(self) -> int:
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def last(self) -> int:
        return self.network + self.num_addresses - 1

    def contains(self, address: int) -> bool:
        return (address & self.mask) == self.network

    def __contains__(self, address) -> bool:
        return self.contains(int(address))

    def address_at(self, offset: int) -> int:
        """The integer address ``offset`` positions into the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise IndexError(f"offset {offset} out of range for /{self.length}")
        return self.network + offset

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"
