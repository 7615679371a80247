"""Deterministic named RNG streams.

Every stochastic decision in the simulator draws from an :class:`RngStream`.
Streams are derived from a master seed and a dotted name
(``"workload.scanners"``, ``"campaign.H1.arrivals"`` ...), so adding a new
consumer of randomness never perturbs the draws of existing consumers — a
property that keeps calibrated traces stable as the codebase grows.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional, Sequence, TypeVar

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


# Backwards-compatible alias (predates the public spelling).
_derive_seed = derive_stream_seed


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


class RngStream:
    """A named, deterministic random stream backed by numpy's PCG64."""

    def __init__(self, master_seed: int, name: str = "root"):
        self.master_seed = int(master_seed)
        self.name = name
        self._gen = np.random.Generator(np.random.PCG64(_derive_seed(master_seed, name)))
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

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._rng.lognormal(mean, sigma))

    def pareto(self, alpha: float, scale: float = 1.0) -> float:
        """Pareto draw with minimum ``scale`` and tail exponent ``alpha``."""
        return float(scale * (1.0 + self._rng.pareto(alpha)))

    def poisson(self, lam: float) -> int:
        if lam <= 0:
            return 0
        return int(self._rng.poisson(lam))

    def binomial(self, n: int, p: float) -> int:
        if n <= 0 or p <= 0:
            return 0
        return int(self._rng.binomial(n, min(p, 1.0)))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self._rng.normal(mean, std))

    def zipf(self, alpha: float, max_value: Optional[int] = None) -> int:
        """Zipf draw (>= 1), optionally truncated at ``max_value``."""
        while True:
            value = int(self._rng.zipf(alpha))
            if max_value is None or value <= max_value:
                return value

    def geometric(self, p: float) -> int:
        return int(self._rng.geometric(p))

    def bernoulli(self, p: float) -> bool:
        return bool(self._rng.random() < p)

    # -- vector draws -----------------------------------------------------

    def poisson_array(self, lam, size: int) -> np.ndarray:
        return self._rng.poisson(lam, size=size)

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Multinomial counts for ``n`` trials over ``pvals`` (normalised)."""
        p = np.asarray(pvals, dtype=np.float64)
        total = p.sum()
        if total <= 0:
            raise ValueError("multinomial weights must sum to a positive value")
        return self._rng.multinomial(n, p / total)

    def lognormal_array(self, mean: float, sigma: float, size: int) -> np.ndarray:
        return self._rng.lognormal(mean, sigma, size=size)

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

    def choice(self, seq: Sequence[T], p: Optional[Sequence[float]] = None) -> T:
        idx = int(self._rng.choice(len(seq), p=p))
        return seq[idx]

    def choice_index(self, n: int, p: Optional[Sequence[float]] = None) -> int:
        return int(self._rng.choice(n, p=p))

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

        ``cdf`` is the precomputed normalised cumulative of ``p`` (see
        :func:`weight_cdf`); passing it skips the per-call cumsum while
        drawing the exact same values.  ``size=0`` returns an empty array
        without touching generator state, matching what numpy's size-0
        draws do.
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
        if p is not None:
            p = np.asarray(p, dtype=np.float64)
            if p.size != n:
                raise ValueError(f"weight vector has {p.size} entries for pool of {n}")
            total = p.sum()
            if total <= 0.0:
                raise ValueError("choice weights must sum to a positive value")
            # Generator.choice(replace=False) rejects weight sums more
            # than sqrt(eps) from 1.0.  Renormalise only those (previously
            # a crash): an unconditional divide would change the bits of
            # every already-normalised caller.
            if abs(total - 1.0) > float(np.sqrt(np.finfo(np.float64).eps)):
                p = p / total
        return gen.choice(n, size=size, p=p, replace=replace)

    def sample(self, seq: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements (k is clamped to ``len(seq)``)."""
        k = min(k, len(seq))
        idx = self._rng.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, seq: Sequence[T]) -> list:
        out = list(seq)
        self._rng.shuffle(out)
        return out

    def weighted_indices(self, weights: Sequence[float], size: int) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        p = w / w.sum()
        return self._rng.choice(len(w), size=size, p=p)

    def iter_uniform(self, low: float, high: float) -> Iterator[float]:
        while True:
            yield self.uniform(low, high)
