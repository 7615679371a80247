"""Client target sets: which honeypots each client contacts.

A client's *target set* is fixed over its lifetime (size = the client's
breadth attribute), sampled by honeypot client-attractiveness; individual
sessions then choose within the target set by session-attractiveness.
Using two different weight vectors is what decorrelates "most sessions"
from "most clients" per honeypot (paper Figs 2 vs 14).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.continents import Continent, continent_of
from repro.simulation.rng import RngStream


@dataclass
class TargetSet:
    """One client's honeypot targets and in-set selection distribution."""

    pots: np.ndarray  # honeypot indices
    cumulative: np.ndarray  # cumulative probability for in-set choice

    def choose(self, u: float) -> int:
        """Pick a pot index for one session given uniform draw ``u``."""
        return int(self.pots[bisect.bisect_left(self.cumulative, u)])

    def choose_many(self, u: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`choose` for a batch of uniform draws.

        ``searchsorted(side="left")`` is exactly ``bisect_left``, so this
        returns the same pots the scalar path would, draw for draw.  An
        empty draw batch returns an empty array; an empty target set is an
        error rather than an out-of-bounds read.
        """
        u = np.asarray(u)
        if u.size == 0:
            return self.pots[:0]
        if self.pots.size == 0:
            raise ValueError("cannot choose from an empty target set")
        return self.pots[np.searchsorted(self.cumulative, u, side="left")]


class TargetTable:
    """Every client's :class:`TargetSet` in one CSR layout.

    Client ``i``'s pots are ``pots[offsets[i]:offsets[i + 1]]``.  ``keys``
    holds each set's cumulative probabilities shifted by its client index
    (client ``i``'s keys lie in ``(i, i + 1]``), so a single global
    ``searchsorted`` of ``client + u`` picks one pot per session for a whole
    shard, however many clients it spans.
    """

    __slots__ = ("pots", "offsets", "keys")

    def __init__(self, sets: Sequence[TargetSet]):
        lengths = np.fromiter((len(s.pots) for s in sets), np.int64,
                              count=len(sets))
        self.offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        if sets:
            self.pots = np.concatenate([s.pots for s in sets]).astype(np.int32)
            shift = np.repeat(np.arange(len(sets), dtype=np.float64), lengths)
            self.keys = np.concatenate([s.cumulative for s in sets]) + shift
        else:
            self.pots = np.zeros(0, dtype=np.int32)
            self.keys = np.zeros(0, dtype=np.float64)

    def choose(self, clients: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One pot per session: client ``clients[k]`` with uniform ``u[k]``.

        The clip keeps a draw inside its client's own segment when float
        rounding of ``client + u`` lands on a segment edge.
        """
        clients = np.asarray(clients, dtype=np.int64)
        idx = np.searchsorted(self.keys, clients + u, side="right")
        np.clip(idx, self.offsets[clients], self.offsets[clients + 1] - 1,
                out=idx)
        return self.pots[idx]


def locality_codes(
    pot_countries: Sequence[str], client_countries: Sequence[str]
) -> Tuple[np.ndarray, ...]:
    """``(pot_country, pot_continent, client_country, client_continent)``
    integer codes: one code space per level covers pots and population
    countries alike, so equal codes mean the same country (continent) —
    the inputs :func:`locality_pools` groups by."""
    countries: Dict[str, int] = {}
    continents: Dict[Continent, int] = {}
    out = []
    for names in (pot_countries, client_countries):
        out.append(np.array([countries.setdefault(cc, len(countries))
                             for cc in names], dtype=np.int64))
        out.append(np.array([continents.setdefault(continent_of(cc),
                                                   len(continents))
                             for cc in names], dtype=np.int64))
    return tuple(out)


def locality_pools(
    subset: np.ndarray,
    pot_country: np.ndarray,
    pot_continent: np.ndarray,
    client_country: np.ndarray,
    client_continent: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """CSR same-country / same-continent pools of ``subset`` per client country.

    ``pot_country``/``pot_continent`` code each honeypot, and
    ``client_country``/``client_continent`` each population country index,
    in the same code spaces (:func:`locality_codes`).  Returns ``(flat, c_off, c_len, k_off, k_len)``:
    country ``i``'s same-country pots are ``flat[c_off[i]:c_off[i]+c_len[i]]``
    and its same-continent pots ``flat[k_off[i]:k_off[i]+k_len[i]]``, both
    in ``subset`` order.  Pure grouping — consumes no RNG.
    """
    subset = np.asarray(subset, dtype=np.int32)
    parts = []
    offs_lens = []
    pos = 0
    for pot_code, client_code in ((pot_country, client_country),
                                  (pot_continent, client_continent)):
        codes = pot_code[subset]
        order = np.argsort(codes, kind="stable")
        parts.append(subset[order])
        n_codes = int(max(pot_code.max(initial=-1),
                          client_code.max(initial=-1))) + 1
        counts = np.bincount(codes, minlength=n_codes)
        starts = pos + np.concatenate(([0], np.cumsum(counts)[:-1]))
        offs_lens.append((starts[client_code], counts[client_code]))
        pos += len(subset)
    (c_off, c_len), (k_off, k_len) = offs_lens
    return np.concatenate(parts), c_off, c_len, k_off, k_len


def redirect_local(
    rng: RngStream,
    pots: np.ndarray,
    client_country: np.ndarray,
    bias: float,
    pools: Tuple[np.ndarray, ...],
) -> None:
    """Send a ``bias`` share of sessions to a pot near their client, in place.

    A redirected session goes to a pot in the client's own country when
    ``pools`` (from :func:`locality_pools`) has one and its draw falls in
    the lower 40% of the bias band, else to one on the client's continent;
    sessions with no local pot keep their target.
    """
    if bias <= 0 or not len(pots):
        return
    u = rng.random_array(len(pots))
    hit = np.flatnonzero(u < bias)
    if hit.size == 0:
        return
    flat, c_off, c_len, k_off, k_len = pools
    ci = np.asarray(client_country[hit], dtype=np.int64)
    use_country = (u[hit] < 0.4 * bias) & (c_len[ci] > 0)
    bounds = np.where(use_country, c_len[ci], k_len[ci])
    offs = np.where(use_country, c_off[ci], k_off[ci])
    drawable = bounds > 0
    if drawable.any():
        picks = rng.randint_array(0, bounds[drawable])
        pots[hit[drawable]] = flat[offs[drawable] + picks]


class TargetIndex:
    """Builds and caches target sets for the whole population."""

    def __init__(
        self,
        rng: RngStream,
        client_weights: np.ndarray,
        session_weights: np.ndarray,
    ):
        self.rng = rng
        self.client_weights = client_weights / client_weights.sum()
        self.session_weights = session_weights
        self.n_pots = len(client_weights)
        self._sets: List[Optional[TargetSet]] = []

    def build_for(self, breadths: np.ndarray) -> List[TargetSet]:
        """Build a target set per client (indexed like ``breadths``)."""
        sets: List[TargetSet] = []
        for breadth in breadths:
            sets.append(self._sample_set(int(breadth)))
        self._sets = sets
        return sets

    def _sample_set(self, breadth: int) -> TargetSet:
        breadth = max(1, min(breadth, self.n_pots))
        if breadth == self.n_pots:
            pots = np.arange(self.n_pots, dtype=np.int32)
        else:
            picked = self.rng.choice_indices(
                self.n_pots, size=breadth, p=self.client_weights, replace=False
            )
            pots = np.asarray(picked, dtype=np.int32)
        weights = self.session_weights[pots].astype(np.float64)
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        return TargetSet(pots=pots, cumulative=cumulative)


def build_subset(
    rng: RngStream,
    n_pots_total: int,
    size: int,
    weights: np.ndarray,
) -> np.ndarray:
    """A weighted, replacement-free honeypot subset (for campaigns)."""
    size = max(1, min(size, n_pots_total))
    if size == n_pots_total:
        return np.arange(n_pots_total, dtype=np.int32)
    p = weights / weights.sum()
    picked = rng.choice_indices(n_pots_total, size=size, p=p, replace=False)
    return np.sort(np.asarray(picked, dtype=np.int32))


def subset_selector(pots: np.ndarray, session_weights: np.ndarray) -> TargetSet:
    """Session-choice structure over a fixed pot subset."""
    weights = session_weights[pots].astype(np.float64)
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    return TargetSet(pots=pots, cumulative=cumulative)
