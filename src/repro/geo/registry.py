"""Synthetic AS / GeoIP registry.

IPv4 space is carved deterministically into per-AS prefixes.  Each AS record
carries a country, a network type (residential, datacenter, ...), and one or
more CIDR prefixes.  :class:`GeoLookup` resolves integer addresses to the
owning AS via binary search over the sorted prefix table — the same query
surface the paper gets from MaxMind + RIPEstat.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.geo.continents import Continent, continent_of
from repro.net.ip import IPv4Prefix
from repro.net.pools import AddressPool


class NetworkType(enum.Enum):
    RESIDENTIAL = "residential"
    DATACENTER = "datacenter"
    CLOUD = "cloud"
    MOBILE = "mobile"
    ACADEMIC = "academic"
    BUSINESS = "business"


@dataclass
class AsRecord:
    """One synthetic autonomous system."""

    asn: int
    country: str
    network_type: NetworkType
    prefixes: List[IPv4Prefix] = field(default_factory=list)
    name: str = ""

    @property
    def continent(self) -> Continent:
        return continent_of(self.country)

    def pool(self) -> AddressPool:
        return AddressPool(self.prefixes)


@dataclass(frozen=True)
class GeoLookup:
    """Result of resolving an IP address."""

    asn: int
    country: str
    continent: Continent
    network_type: NetworkType


class GeoRegistry:
    """Allocates AS prefixes out of IPv4 space and answers lookups.

    Allocation walks /16 blocks upward from ``base_network`` (default
    1.0.0.0), skipping nothing — the space is entirely synthetic.  Each AS
    receives ``n_prefixes`` /16 blocks (one by default; large eyeball ASes
    get more).
    """

    BLOCK_LENGTH = 16

    def __init__(self, base_network: str = "1.0.0.0"):
        self._next_block = IPv4Prefix.parse(f"{base_network}/{self.BLOCK_LENGTH}").network
        self._records: Dict[int, AsRecord] = {}
        # Sorted parallel arrays for lookup: prefix network -> asn.
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._asns: List[int] = []
        self._next_asn = 64512  # private-use ASN range start

    # -- allocation --------------------------------------------------------

    def _take_block(self) -> IPv4Prefix:
        prefix = IPv4Prefix(self._next_block, self.BLOCK_LENGTH)
        self._next_block += prefix.num_addresses
        if self._next_block > 0xFFFFFFFF:
            raise RuntimeError("synthetic IPv4 space exhausted")
        return prefix

    def register_as(
        self,
        country: str,
        network_type: NetworkType,
        n_prefixes: int = 1,
        name: str = "",
        asn: Optional[int] = None,
    ) -> AsRecord:
        """Create a new AS with ``n_prefixes`` /16 allocations."""
        continent_of(country)  # validate the country code early
        if asn is None:
            asn = self._next_asn
            self._next_asn += 1
        elif asn in self._records:
            raise ValueError(f"ASN {asn} already registered")
        record = AsRecord(asn=asn, country=country, network_type=network_type, name=name)
        for _ in range(max(1, n_prefixes)):
            prefix = self._take_block()
            record.prefixes.append(prefix)
            idx = bisect.bisect_left(self._starts, prefix.network)
            self._starts.insert(idx, prefix.network)
            self._ends.insert(idx, prefix.last)
            self._asns.insert(idx, asn)
        self._records[asn] = record
        return record

    # -- queries -----------------------------------------------------------

    def lookup(self, address: int) -> Optional[GeoLookup]:
        """Resolve an integer IPv4 address, or None if unallocated."""
        idx = bisect.bisect_right(self._starts, address) - 1
        if idx < 0 or address > self._ends[idx]:
            return None
        record = self._records[self._asns[idx]]
        return GeoLookup(
            asn=record.asn,
            country=record.country,
            continent=record.continent,
            network_type=record.network_type,
        )

    def records(self) -> List[AsRecord]:
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)
