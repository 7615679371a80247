"""Synthetic geolocation / AS substrate.

The paper geolocates client IPs with MaxMind's commercial API and groups
them by country, continent and origin AS.  That database is proprietary, so
we build a deterministic synthetic equivalent: IPv4 space is carved into
per-AS prefixes, every AS belongs to a country and network type, and lookups
resolve an integer address to ``(asn, country, continent)`` via binary
search.  The API mirrors what the analysis layer needs from MaxMind.
"""

from repro.geo.continents import Continent, COUNTRY_CONTINENT, continent_of
from repro.geo.registry import AsRecord, NetworkType, GeoRegistry, GeoLookup

__all__ = [
    "Continent",
    "COUNTRY_CONTINENT",
    "continent_of",
    "AsRecord",
    "NetworkType",
    "GeoRegistry",
    "GeoLookup",
]
