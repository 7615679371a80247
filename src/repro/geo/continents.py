"""Country / continent reference data.

A static mapping of ISO 3166-1 alpha-2 country codes to continents for every
country the simulation uses (honeypot host countries plus client origin
countries).  The set intentionally covers more than the paper names so the
long-tail country distributions have realistic support.
"""

from __future__ import annotations

import enum
from typing import Dict


class Continent(enum.Enum):
    AFRICA = "AF"
    ASIA = "AS"
    EUROPE = "EU"
    NORTH_AMERICA = "NA"
    SOUTH_AMERICA = "SA"
    OCEANIA = "OC"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: ISO alpha-2 country code -> (continent, human-readable name of the code)
_COUNTRIES: Dict[str, tuple] = {
    # Asia
    "CN": (Continent.ASIA, "China"),
    "IN": (Continent.ASIA, "India"),
    "TW": (Continent.ASIA, "Taiwan"),
    "IR": (Continent.ASIA, "Iran"),
    "JP": (Continent.ASIA, "Japan"),
    "VN": (Continent.ASIA, "Vietnam"),
    "SG": (Continent.ASIA, "Singapore"),
    "KR": (Continent.ASIA, "South Korea"),
    "HK": (Continent.ASIA, "Hong Kong"),
    "TH": (Continent.ASIA, "Thailand"),
    "ID": (Continent.ASIA, "Indonesia"),
    "MY": (Continent.ASIA, "Malaysia"),
    "PH": (Continent.ASIA, "Philippines"),
    "PK": (Continent.ASIA, "Pakistan"),
    "BD": (Continent.ASIA, "Bangladesh"),
    "SA": (Continent.ASIA, "Saudi Arabia"),
    "AE": (Continent.ASIA, "United Arab Emirates"),
    "IL": (Continent.ASIA, "Israel"),
    "TR": (Continent.ASIA, "Turkey"),
    "KZ": (Continent.ASIA, "Kazakhstan"),
    "LK": (Continent.ASIA, "Sri Lanka"),
    "NP": (Continent.ASIA, "Nepal"),
    "KH": (Continent.ASIA, "Cambodia"),
    "MN": (Continent.ASIA, "Mongolia"),
    # Europe
    "RU": (Continent.EUROPE, "Russia"),
    "DE": (Continent.EUROPE, "Germany"),
    "FR": (Continent.EUROPE, "France"),
    "GB": (Continent.EUROPE, "United Kingdom"),
    "NL": (Continent.EUROPE, "Netherlands"),
    "IT": (Continent.EUROPE, "Italy"),
    "ES": (Continent.EUROPE, "Spain"),
    "PL": (Continent.EUROPE, "Poland"),
    "SE": (Continent.EUROPE, "Sweden"),
    "CH": (Continent.EUROPE, "Switzerland"),
    "BG": (Continent.EUROPE, "Bulgaria"),
    "RO": (Continent.EUROPE, "Romania"),
    "LT": (Continent.EUROPE, "Lithuania"),
    "UA": (Continent.EUROPE, "Ukraine"),
    "CZ": (Continent.EUROPE, "Czechia"),
    "AT": (Continent.EUROPE, "Austria"),
    "BE": (Continent.EUROPE, "Belgium"),
    "PT": (Continent.EUROPE, "Portugal"),
    "GR": (Continent.EUROPE, "Greece"),
    "HU": (Continent.EUROPE, "Hungary"),
    "DK": (Continent.EUROPE, "Denmark"),
    "FI": (Continent.EUROPE, "Finland"),
    "NO": (Continent.EUROPE, "Norway"),
    "IE": (Continent.EUROPE, "Ireland"),
    "SK": (Continent.EUROPE, "Slovakia"),
    "SI": (Continent.EUROPE, "Slovenia"),
    "HR": (Continent.EUROPE, "Croatia"),
    "RS": (Continent.EUROPE, "Serbia"),
    "EE": (Continent.EUROPE, "Estonia"),
    "LV": (Continent.EUROPE, "Latvia"),
    "MD": (Continent.EUROPE, "Moldova"),
    # North America
    "US": (Continent.NORTH_AMERICA, "United States"),
    "CA": (Continent.NORTH_AMERICA, "Canada"),
    "MX": (Continent.NORTH_AMERICA, "Mexico"),
    "PA": (Continent.NORTH_AMERICA, "Panama"),
    "CR": (Continent.NORTH_AMERICA, "Costa Rica"),
    "DO": (Continent.NORTH_AMERICA, "Dominican Republic"),
    "GT": (Continent.NORTH_AMERICA, "Guatemala"),
    # South America
    "BR": (Continent.SOUTH_AMERICA, "Brazil"),
    "AR": (Continent.SOUTH_AMERICA, "Argentina"),
    "CL": (Continent.SOUTH_AMERICA, "Chile"),
    "CO": (Continent.SOUTH_AMERICA, "Colombia"),
    "PE": (Continent.SOUTH_AMERICA, "Peru"),
    "EC": (Continent.SOUTH_AMERICA, "Ecuador"),
    "UY": (Continent.SOUTH_AMERICA, "Uruguay"),
    "VE": (Continent.SOUTH_AMERICA, "Venezuela"),
    "BO": (Continent.SOUTH_AMERICA, "Bolivia"),
    "PY": (Continent.SOUTH_AMERICA, "Paraguay"),
    # Africa
    "ZA": (Continent.AFRICA, "South Africa"),
    "EG": (Continent.AFRICA, "Egypt"),
    "NG": (Continent.AFRICA, "Nigeria"),
    "KE": (Continent.AFRICA, "Kenya"),
    "MA": (Continent.AFRICA, "Morocco"),
    "TN": (Continent.AFRICA, "Tunisia"),
    "GH": (Continent.AFRICA, "Ghana"),
    "SN": (Continent.AFRICA, "Senegal"),
    "TZ": (Continent.AFRICA, "Tanzania"),
    "UG": (Continent.AFRICA, "Uganda"),
    "DZ": (Continent.AFRICA, "Algeria"),
    "MU": (Continent.AFRICA, "Mauritius"),
    # Oceania
    "AU": (Continent.OCEANIA, "Australia"),
    "NZ": (Continent.OCEANIA, "New Zealand"),
    "FJ": (Continent.OCEANIA, "Fiji"),
}

COUNTRY_CONTINENT: Dict[str, Continent] = {cc: v[0] for cc, v in _COUNTRIES.items()}

ALL_COUNTRIES = sorted(_COUNTRIES)


def continent_of(country: str) -> Continent:
    """Continent of an ISO alpha-2 country code (raises KeyError if unknown)."""
    return COUNTRY_CONTINENT[country]
