"""Regional diversity of client/honeypot interactions (Figures 16, 24).

For every session we classify the geographic relation between the client
and the honeypot it contacted (same country / same continent / different
continent), then aggregate per client per day into the combination classes
the paper plots: most clients only ever touch honeypots outside their own
continent, while CMD+URI clients show markedly more locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.context import DistinctTuples, StoreOrContext, as_context, as_store
from repro.geo.continents import COUNTRY_CONTINENT, Continent

#: Relation bits aggregated per (client, day).
BIT_SAME_COUNTRY = 1
BIT_SAME_CONTINENT = 2  # same continent, different country
BIT_OUT_CONTINENT = 4

COMBO_NAMES: Dict[int, str] = {
    1: "in-country only",
    2: "in-continent only",
    3: "in-country + in-continent",
    4: "out-of-continent only",
    5: "in-country + out",
    6: "in-continent + out",
    7: "in-country + in-continent + out",
}


def _continent_codes(countries: Sequence[str]) -> np.ndarray:
    continents = sorted(Continent, key=lambda c: c.value)
    index = {c: i for i, c in enumerate(continents)}
    return np.array(
        [index[COUNTRY_CONTINENT[cc]] if cc in COUNTRY_CONTINENT else -1
         for cc in countries],
        dtype=np.int8,
    )


def session_relations(
    store: StoreOrContext,
    pot_countries: Sequence[str],
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-session relation bit (1, 2 or 4) between client and honeypot.

    Country-string comparisons and continent lookups happen once per
    *table entry* (dozens), then fan out to the sessions with integer
    gathers — no per-session Python work.
    """
    store = as_store(store)
    rows = slice(None) if mask is None else mask
    client_country_ids, pots = store.client_country[rows], store.honeypot[rows]

    table_cont = _continent_codes(store.countries.values())
    pot_list = list(pot_countries)
    pot_cont = _continent_codes(pot_list)
    # Each pot's country as an id in the store's country table (-1 when no
    # client ever came from it; ids are unique, so id equality is string
    # equality).
    pot_country_id = np.array(
        [store.countries.id_of(cc) if cc in store.countries else -1
         for cc in pot_list],
        dtype=np.int64,
    )

    same_country = client_country_ids == pot_country_id[pots]
    client_cont = table_cont[client_country_ids]
    same_continent = (client_cont == pot_cont[pots]) & (client_cont >= 0)

    relation = np.full(len(client_country_ids), BIT_OUT_CONTINENT,
                       dtype=np.uint8)
    relation[same_continent] = BIT_SAME_CONTINENT
    relation[same_country] = BIT_SAME_COUNTRY
    return relation


@dataclass
class DiversityReport:
    """Figure 16's content: daily combination counts + daily client totals."""

    daily_combos: Dict[int, np.ndarray]  # combo bitmask -> per-day client count
    daily_clients: np.ndarray

    def share_of(self, combo: int) -> float:
        """Overall share of client-days in a combination class."""
        return self._share(lambda bits: bits == combo)

    @property
    def out_only_share(self) -> float:
        return self.share_of(BIT_OUT_CONTINENT)

    @property
    def any_local_share(self) -> float:
        """Share of client-days touching at least one same-country pot."""
        return self._share(lambda bits: bits & BIT_SAME_COUNTRY)

    @property
    def any_out_share(self) -> float:
        """Share of client-days touching at least one off-continent pot."""
        return self._share(lambda bits: bits & BIT_OUT_CONTINENT)

    def _share(self, keep) -> float:
        total = sum(int(v.sum()) for v in self.daily_combos.values())
        matching = sum(int(v.sum()) for bits, v in self.daily_combos.items()
                       if keep(bits))
        return matching / total if total else 0.0


def _diversity(table: DistinctTuples, n_days: int,
               category: Optional[int] = None) -> DiversityReport:
    """OR the relation bits of each (client, day) into its combo class."""
    keys = table.rows(category)
    if not len(keys):
        return DiversityReport(daily_combos={}, daily_clients=np.zeros(n_days))
    starts = table.runs(keys, "day")
    combo = np.bitwise_or.reduceat(table.field("relation", keys), starts)
    group_day = table.field("day", keys[starts])
    daily_combos = {bits: np.bincount(group_day[combo == bits], minlength=n_days)
                    for bits in COMBO_NAMES}
    return DiversityReport(daily_combos=daily_combos,
                           daily_clients=np.bincount(group_day, minlength=n_days))


def regional_diversity(
    store: StoreOrContext,
    pot_countries: Sequence[str],
    mask: Optional[np.ndarray] = None,
) -> DiversityReport:
    """Aggregate session relations per (client, day) into combo classes."""
    ctx = as_context(store)
    return _diversity(ctx.client_days(mask, pot_countries), ctx.store.n_days)


def diversity_by_category(
    store: StoreOrContext, pot_countries: Sequence[str]
) -> Dict[str, DiversityReport]:
    """Figure 24: a diversity report per session category."""
    ctx = as_context(store)
    table = ctx.client_days(pot_countries=pot_countries)
    return {cat.value: _diversity(table, ctx.store.n_days, i)
            for i, cat in enumerate(CATEGORIES)}
