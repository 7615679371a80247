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
from repro.simulation.rng import RngStream, choice_weights, weight_cdf


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
    subsets: Sequence[np.ndarray],
    pot_country: np.ndarray,
    pot_continent: np.ndarray,
    client_country: np.ndarray,
    client_continent: np.ndarray,
) -> List[Tuple[np.ndarray, ...]]:
    """CSR same-country / same-continent pools of each subset per client country.

    ``pot_country``/``pot_continent`` code each honeypot, and
    ``client_country``/``client_continent`` each population country index,
    in the same code spaces (:func:`locality_codes`).  Returns, per subset,
    ``(flat, c_off, c_len, k_off, k_len)``: country ``i``'s same-country
    pots are ``flat[c_off[i]:c_off[i]+c_len[i]]`` and its same-continent
    pots ``flat[k_off[i]:k_off[i]+k_len[i]]``, both in subset order.  The
    subsets are grouped in one pass and share ``flat``.  Pure grouping —
    consumes no RNG.
    """
    flat_subsets = np.concatenate([np.zeros(0, np.int32), *subsets]).astype(np.int32)
    unit = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    parts = []
    offs_lens = []
    pos = 0
    for pot_code, client_code in ((pot_country, client_country),
                                  (pot_continent, client_continent)):
        n_codes = int(max(pot_code.max(initial=-1),
                          client_code.max(initial=-1))) + 1
        key = unit * n_codes + pot_code[flat_subsets]
        parts.append(flat_subsets[np.argsort(key, kind="stable")])
        counts = np.bincount(key, minlength=len(subsets) * n_codes)
        starts = (pos + np.cumsum(counts) - counts).reshape(-1, n_codes)
        counts = counts.reshape(-1, n_codes)
        offs_lens.append((starts[:, client_code], counts[:, client_code]))
        pos += len(flat_subsets)
    flat = np.concatenate(parts)
    (c_off, c_len), (k_off, k_len) = offs_lens
    return [(flat, c_off[j], c_len[j], k_off[j], k_len[j])
            for j in range(len(subsets))]


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
        self.n_pots = len(client_weights)
        self.client_weights = choice_weights(
            client_weights / client_weights.sum(), self.n_pots)
        self._client_cdf = weight_cdf(self.client_weights)
        self.session_weights = session_weights
        self._sets: List[Optional[TargetSet]] = []

    def build_for(self, breadths: np.ndarray) -> List[TargetSet]:
        """Build a target set per client (indexed like ``breadths``).

        Pots are drawn client by client, in order; the in-set cumulative
        weights are then computed for all clients of one breadth at once
        (:func:`in_set_cumulative` is row-wise exact).
        """
        breadths = np.clip(breadths, 1, self.n_pots)
        pots = [self._sample_pots(breadth) for breadth in breadths.tolist()]
        cumulative: List[Optional[np.ndarray]] = [None] * len(pots)
        for breadth in np.unique(breadths).tolist():
            rows = np.flatnonzero(breadths == breadth).tolist()
            block = in_set_cumulative(np.stack([pots[i] for i in rows]),
                                      self.session_weights)
            for i, row in zip(rows, block):
                cumulative[i] = row
        sets = [TargetSet(pots=p, cumulative=c) for p, c in zip(pots, cumulative)]
        self._sets = sets
        return sets

    def _sample_pots(self, breadth: int) -> np.ndarray:
        if breadth == self.n_pots:
            return np.arange(self.n_pots, dtype=np.int32)
        return self.rng.choice_indices(
            self.n_pots, size=breadth, p=self.client_weights,
            replace=False, cdf=self._client_cdf,
        ).astype(np.int32)


def build_subset(
    rng: RngStream,
    n_pots_total: int,
    size: int,
    weights: np.ndarray,
    cdf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """A weighted, replacement-free honeypot subset (for campaigns).

    ``weights`` are normalised here, unless ``cdf`` is given: then they
    are the normalised weights ``cdf`` was built from (see
    :func:`subset_weights`), hoisted by a caller that draws many subsets.
    """
    size = max(1, min(size, n_pots_total))
    if size == n_pots_total:
        return np.arange(n_pots_total, dtype=np.int32)
    if cdf is None:
        weights = weights / weights.sum()
    picked = rng.choice_indices(n_pots_total, size=size, p=weights,
                                replace=False, cdf=cdf)
    return np.sort(picked.astype(np.int32))


def subset_weights(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(p, cdf)`` that :func:`build_subset` derives from ``weights`` on
    every call, computed once."""
    p = choice_weights(weights / weights.sum(), len(weights))
    return p, weight_cdf(p)


def in_set_cumulative(pots: np.ndarray, session_weights: np.ndarray) -> np.ndarray:
    """Normalised cumulative session weight of ``pots`` along its last axis.

    The last entry is pinned to 1.0.  A 2-D ``pots`` holds one pot set per
    row; each row comes out bit-identical to the 1-D call on that row,
    since numpy sums and accumulates a contiguous row the same way either
    way (a test holds numpy to this).
    """
    weights = session_weights[pots].astype(np.float64, copy=False)
    cumulative = np.cumsum(weights / weights.sum(axis=-1, keepdims=True), axis=-1)
    cumulative[..., -1] = 1.0
    return cumulative


def subset_selector(pots: np.ndarray, session_weights: np.ndarray) -> TargetSet:
    """Session-choice structure over a fixed pot subset."""
    return TargetSet(pots=pots, cumulative=in_set_cumulative(pots, session_weights))
