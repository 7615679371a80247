"""Deterministic named RNG streams.

Every stochastic decision in the simulator draws from an :class:`RngStream`.
Streams are derived from a master seed and a dotted name
(``"workload.scanners"``, ``"campaign.H1.arrivals"`` ...), so adding a new
consumer of randomness never perturbs the draws of existing consumers — a
property that keeps calibrated traces stable as the codebase grows.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, TypeVar

import numpy as np

from repro.obs import inc as _metric_inc
from repro.obs import metrics as _obs_metrics

T = TypeVar("T")


def derive_stream_seed(master_seed: int, name: str) -> int:
    """The 64-bit seed a named stream derives from ``master_seed``.

    Public so that non-``Generator`` consumers of determinism (the
    ``repro.analytics`` sketches seed their hash functions this way) share
    the exact same derivation as the simulator's named streams.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def weight_cdf(p) -> np.ndarray:
    """Normalised cumulative distribution over weight vector ``p``.

    This is exactly the array :meth:`RngStream.choice_indices` builds
    internally for weighted draws with replacement; precomputing it once
    and passing it back via the ``cdf=`` parameter skips the per-call
    cumsum without changing a single drawn value.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot build a cdf over an empty weight vector")
    cdf = np.cumsum(p, dtype=np.float64)
    if cdf[-1] <= 0.0:
        raise ValueError("choice weights must sum to a positive value")
    cdf /= cdf[-1]
    return cdf


#: ``Generator.choice`` rejects weights summing further than this from 1.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def choice_weights(p, n: int) -> np.ndarray:
    """``p`` as ``Generator.choice(n, replace=False, p=p)`` accepts it.

    Raises what numpy raises for a wrong length, NaN, negative entries or
    a sum off 1.  A positive sum further than numpy's tolerance from 1 is
    renormalised first (numpy would reject it); sums within it are left
    alone, since an unconditional divide would change the bits of every
    already-normalised caller.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size != n:
        raise ValueError(f"weight vector has {p.size} entries for pool of {n}")
    total = float(np.add.reduce(p))
    if total <= 0.0:
        raise ValueError("choice weights must sum to a positive value")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        p = p / total
        total = float(np.add.reduce(p))
    if total != total:
        raise ValueError("Probabilities contain NaN")
    if p.min() < 0.0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError("Probabilities do not sum to 1")
    return p


def _weighted_sample(gen: np.random.Generator, p: np.ndarray, size: int,
                     cdf: np.ndarray) -> np.ndarray:
    """numpy's weighted sampling without replacement, minus its overhead.

    Each round draws one uniform per index still missing, inverts them
    over the cdf of the weight not yet drawn, and keeps each new index's
    first occurrence in draw order; drawn weights are zeroed before the
    next round.  This is ``Generator.choice(replace=False, p=p)``'s loop
    step for step (``np.unique`` + sort of the first indices is the order
    of first occurrence), so it consumes the same doubles and returns the
    same indices.  ``cdf`` is the first round's cumulative of ``p``.
    """
    new = cdf.searchsorted(gen.random(size), side="right")
    if size == 1:
        return new
    found = list(dict.fromkeys(new.tolist()))
    if len(found) == size:
        return new
    left = p.copy()
    while True:
        # numpy re-zeroes every index found so far; zeroing each round's
        # draws on a running copy leaves the same weights.
        left[new] = 0.0
        cdf = left.cumsum()
        cdf /= cdf[-1]
        new = cdf.searchsorted(gen.random(size - len(found)), side="right")
        found.extend(dict.fromkeys(new.tolist()))
        if len(found) == size:
            return np.fromiter(found, dtype=np.int64, count=size)


class RngStream:
    """A named, deterministic random stream backed by numpy's PCG64."""

    def __init__(self, master_seed: int, name: str = "root"):
        self.master_seed = int(master_seed)
        self.name = name
        self._gen = np.random.Generator(
            np.random.PCG64(derive_stream_seed(master_seed, name)))
        _metric_inc("rng.streams_created")

    @property
    def _rng(self) -> np.random.Generator:
        """The underlying generator; every draw method reads it exactly once
        per call, so this property doubles as the per-draw counter.  The
        increment is inlined (no function call) — this sits under every
        draw in the generation hot path."""
        c = _obs_metrics._CURRENT.counters
        try:
            c["rng.draws"] += 1
        except KeyError:
            c["rng.draws"] = 1
        return self._gen

    def child(self, suffix: str) -> "RngStream":
        """Derive an independent child stream named ``<name>.<suffix>``."""
        return RngStream(self.master_seed, f"{self.name}.{suffix}")

    # -- scalar draws -----------------------------------------------------

    def random(self) -> float:
        return float(self._rng.random())

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._rng.lognormal(mean, sigma))

    def pareto(self, alpha: float, scale: float = 1.0) -> float:
        """Pareto draw with minimum ``scale`` and tail exponent ``alpha``."""
        return float(scale * (1.0 + self._rng.pareto(alpha)))

    def geometric(self, p: float) -> int:
        return int(self._rng.geometric(p))

    def bernoulli(self, p: float) -> bool:
        return bool(self._rng.random() < p)

    # -- vector draws -----------------------------------------------------

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Multinomial counts for ``n`` trials over ``pvals`` (normalised)."""
        return self._rng.multinomial(n, self.multinomial_p(pvals))

    @staticmethod
    def multinomial_p(pvals) -> np.ndarray:
        """``pvals`` normalised the way :meth:`multinomial` normalises them."""
        p = np.asarray(pvals, dtype=np.float64)
        total = p.sum()
        if total <= 0:
            raise ValueError("multinomial weights must sum to a positive value")
        return p / total

    def multinomials(self, trials: Sequence[int],
                     ps: Sequence[np.ndarray]) -> List[np.ndarray]:
        """:meth:`multinomial` per ``(n, p)`` pair in order, for ``p`` already
        :meth:`multinomial_p`-normalised (hoisted where ``p`` repeats)."""
        draw = self._rng.multinomial
        return [draw(n, p) for n, p in zip(trials, ps)]

    def lognormal_array(self, mean: float, sigma: float, size: int) -> np.ndarray:
        return self._rng.lognormal(mean, sigma, size=size)

    def normal_array(self, size: int) -> np.ndarray:
        """Standard normals; the same values as ``size`` calls to
        :meth:`normal`."""
        return self._rng.normal(0.0, 1.0, size=size)

    def exponential_array(self, mean: float, size: int) -> np.ndarray:
        return self._rng.exponential(mean, size=size)

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        return self._rng.uniform(low, high, size=size)

    def random_array(self, size: int) -> np.ndarray:
        return self._rng.random(size)

    def randint_array(self, low, high) -> np.ndarray:
        """Uniform integers in ``[low, high)``; ``high`` may be an array
        of per-element bounds (one draw per element)."""
        return self._rng.integers(low, high)

    def choice(self, seq: Sequence[T], p: Optional[Sequence[float]] = None,
               cdf: Optional[np.ndarray] = None) -> T:
        """One element, optionally weighted by ``p``.

        ``cdf`` is :func:`weight_cdf` of ``p``, precomputed: a weighted
        scalar choice is one double inverted over it, so this draws what
        ``Generator.choice(len(seq), p=p)`` would, without its per-call
        checks.
        """
        if cdf is not None:
            return seq[int(cdf.searchsorted(self._rng.random(), side="right"))]
        idx = int(self._rng.choice(len(seq), p=p))
        return seq[idx]

    def choice_indices(
        self,
        n: int,
        size: int,
        p=None,
        replace: bool = True,
        cdf: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Index draws, optionally weighted / without replacement.

        The ``replace=True`` paths inline what ``Generator.choice`` does
        internally — plain ``integers`` without weights, an inverse-CDF
        lookup over ``random(size)`` with them — skipping its per-call
        argument validation.  The draw sequence is identical; this wrapper
        sits under every emitted session block.

        Weighted draws without replacement run numpy's own algorithm
        (:func:`_weighted_sample`) with the same checks, so indices and the
        generator state afterwards equal ``Generator.choice(n, size,
        replace=False, p=p)``.

        ``cdf`` is the precomputed normalised cumulative of ``p`` (see
        :func:`weight_cdf`); passing it skips the per-call cumsum while
        drawing the exact same values.  Without replacement the weight
        checks are hoisted with it: ``p`` must then be the output of
        :func:`choice_weights`, which makes them once.  ``size=0`` returns
        an empty array without touching generator state, matching what
        numpy's size-0 draws do.
        """
        if size == 0:
            # numpy's own size-0 draws leave the bit generator untouched,
            # so skipping the call entirely is byte-identical.
            return np.empty(0, dtype=np.int64)
        if n <= 0:
            raise ValueError(f"cannot draw {size} indices from an empty pool (n={n})")
        gen = self._rng
        if replace:
            if cdf is not None:
                return cdf.searchsorted(gen.random(size), side="right")
            if p is None:
                return gen.integers(0, n, size=size)
            return weight_cdf(p).searchsorted(gen.random(size), side="right")
        if p is None:
            return gen.choice(n, size=size, replace=False)
        if cdf is None:
            p = choice_weights(p, n)
            cdf = weight_cdf(p)
        elif len(p) != n:
            raise ValueError(f"weight vector has {len(p)} entries for pool of {n}")
        if size > n:
            raise ValueError("Cannot take a larger sample than population "
                             "when replace is False")
        # With no negative weights and a positive sum, one draw always
        # finds a non-zero entry.
        if size > 1 and np.count_nonzero(p) < size:
            raise ValueError("Fewer non-zero entries in p than size")
        return _weighted_sample(gen, p, size, cdf)

    def sample(self, seq: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements (k is clamped to ``len(seq)``)."""
        k = min(k, len(seq))
        idx = self._rng.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, seq: Sequence[T]) -> list:
        out = list(seq)
        self._rng.shuffle(out)
        return out
