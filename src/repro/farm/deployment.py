"""Honeyfarm deployment plan.

The studied farm runs 221 honeypots in 55 countries and 65 ASes.  Most
countries host a single honeypot; a few (e.g. the US and Singapore) host
many.  The paper anonymises the exact layout, so we synthesise one with the
published shape: 55 countries, 65 ASes, a residential-network focus, and a
skewed pots-per-country distribution.  Honeypot IPs are freshly allocated
(never previously used as honeypots — they come out of our synthetic
registry untouched), matching the paper's note about fresh address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.geo.registry import GeoRegistry, NetworkType
from repro.honeypot.honeypot import Honeypot, HoneypotConfig
from repro.simulation.rng import RngStream

#: Countries hosting honeypots, with the number of pots each hosts.
#: 55 countries, totalling 221 honeypots. The multi-pot countries follow the
#: paper's note that the US and Singapore host several.
HONEYPOT_COUNTRIES: Dict[str, int] = {
    # Heavily provisioned countries (the paper singles out the US and SG).
    "US": 50, "SG": 20, "DE": 15, "GB": 12, "NL": 11, "FR": 10, "JP": 9,
    "CA": 8, "AU": 7, "BR": 7, "IN": 7, "KR": 6, "IT": 5, "ES": 5,
    # A handful of two-pot countries.
    "SE": 2, "PL": 2, "CH": 2, "AT": 2, "BE": 2, "CZ": 2, "DK": 2,
    "FI": 2,
    # Most countries host exactly one honeypot (paper Figure 1).
    "NO": 1, "IE": 1, "PT": 1, "GR": 1, "HU": 1, "RO": 1, "BG": 1,
    "LT": 1, "UA": 1, "TR": 1, "IL": 1, "AE": 1, "HK": 1, "TW": 1,
    "TH": 1, "MY": 1, "ID": 1, "PH": 1, "VN": 1, "MX": 1, "AR": 1,
    "CL": 1, "CO": 1, "ZA": 1, "EG": 1, "KE": 1, "NG": 1, "MA": 1,
    "NZ": 1, "RU": 1, "SK": 1, "EE": 1, "LV": 1,
}

#: Number of distinct ASes hosting honeypots.
HONEYPOT_AS_COUNT = 65


@dataclass
class HoneypotSite:
    """Placement of one honeypot."""

    honeypot_id: str
    ip: int
    country: str
    asn: int
    network_type: NetworkType


@dataclass
class DeploymentPlan:
    """The full farm layout plus the geo registry it lives in."""

    sites: List[HoneypotSite]
    registry: GeoRegistry
    honeypot_asns: List[int] = field(default_factory=list)

    @property
    def n_honeypots(self) -> int:
        return len(self.sites)

    @property
    def countries(self) -> List[str]:
        return sorted({site.country for site in self.sites})

    def pots_per_country(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for site in self.sites:
            counts[site.country] = counts.get(site.country, 0) + 1
        return counts

    def build_honeypots(self, **honeypot_kwargs) -> List[Honeypot]:
        """Instantiate a live :class:`Honeypot` per site."""
        return [
            Honeypot(
                HoneypotConfig(
                    honeypot_id=site.honeypot_id,
                    ip=site.ip,
                    country=site.country,
                    asn=site.asn,
                ),
                **honeypot_kwargs,
            )
            for site in self.sites
        ]


def build_default_deployment(
    rng: Optional[RngStream] = None,
    registry: Optional[GeoRegistry] = None,
    countries: Optional[Dict[str, int]] = None,
    n_ases: int = HONEYPOT_AS_COUNT,
) -> DeploymentPlan:
    """Build the 221-pot / 55-country / 65-AS deployment.

    ASes are spread so that every country has at least one hosting AS and
    countries with many pots get proportionally more; within an AS, pot IPs
    are allocated sequentially from the AS's prefix (matching how a hosting
    order would be fulfilled).
    """
    rng = rng or RngStream(2021, "deployment")
    registry = registry or GeoRegistry()
    countries = dict(countries or HONEYPOT_COUNTRIES)

    n_countries = len(countries)
    if n_ases < n_countries:
        raise ValueError(
            f"need at least one AS per country ({n_countries}), got {n_ases}"
        )

    # One AS per country, then extra ASes for the countries with most pots.
    as_counts = {cc: 1 for cc in countries}
    extra = n_ases - n_countries
    by_pots = sorted(countries, key=lambda cc: -countries[cc])
    i = 0
    while extra > 0:
        cc = by_pots[i % len(by_pots)]
        # Only countries with more pots than ASes benefit from another AS.
        if countries[cc] > as_counts[cc]:
            as_counts[cc] += 1
            extra -= 1
        i += 1
        if i > 10_000:  # all countries saturated; dump remainder on the top one
            as_counts[by_pots[0]] += extra
            extra = 0

    # Residential focus: ~70% residential, rest business/datacenter.
    type_cycle = [
        NetworkType.RESIDENTIAL,
        NetworkType.RESIDENTIAL,
        NetworkType.RESIDENTIAL,
        NetworkType.BUSINESS,
        NetworkType.RESIDENTIAL,
        NetworkType.DATACENTER,
        NetworkType.RESIDENTIAL,
    ]

    country_ases: Dict[str, List] = {}
    asn_index = 0
    for cc in sorted(countries):
        records = []
        for _ in range(as_counts[cc]):
            ntype = type_cycle[asn_index % len(type_cycle)]
            records.append(
                registry.register_as(
                    country=cc,
                    network_type=ntype,
                    name=f"HPNET-{cc}-{asn_index}",
                )
            )
            asn_index += 1
        country_ases[cc] = records

    sites: List[HoneypotSite] = []
    pools: Dict[int, object] = {}
    pot_index = 1
    for cc in sorted(countries):
        records = country_ases[cc]
        for k in range(countries[cc]):
            record = records[k % len(records)]
            pool = pools.get(record.asn)
            if pool is None:
                pool = record.pool()
                pools[record.asn] = pool
            # Skip the network's first few addresses (gateway etc.).
            if pool.used_count == 0:
                for _ in range(10):
                    pool.allocate_sequential()
            ip = pool.allocate_sequential()
            sites.append(
                HoneypotSite(
                    honeypot_id=f"hp-{pot_index:03d}",
                    ip=ip,
                    country=cc,
                    asn=record.asn,
                    network_type=record.network_type,
                )
            )
            pot_index += 1

    honeypot_asns = sorted({site.asn for site in sites})
    return DeploymentPlan(sites=sites, registry=registry, honeypot_asns=honeypot_asns)
