"""From-scratch sketches for streaming farm analytics.

Three summaries cover the aggregate tables the batch :class:`AnalysisContext`
computes from a frozen store:

* :class:`HyperLogLog` — unique client IPs / unique file hashes.
* :class:`SpaceSaving` — top-k heavy hitters (hashes, clients, ASNs),
  implemented as the Misra–Gries summary (the space-saving and
  Misra–Gries summaries are isomorphic: a space-saving counter equals the
  Misra–Gries counter plus the accumulated decrement).
* :class:`ExactCounter` — exact online accumulator for low-cardinality
  keys (category mix, sessions per day) where no approximation is needed.

Each sketch has a scalar ``add`` and a batch ``add_many``; the batch path
is the reference the tests hold the scalar path to, cell for cell.

Error bounds (documented, pinned by tests)
------------------------------------------
* HyperLogLog with ``m = 2**p`` registers: relative standard error
  ``1.04 / sqrt(m)`` (``rel_error``); small cardinalities fall back to
  linear counting, which is far tighter.
* SpaceSaving with capacity ``k``: every stored counter is a lower bound
  on the true frequency, ``count <= true <= count + error()``; a key
  whose true frequency exceeds ``error()`` is always present.  ``error()``
  (the accumulated decrement) never exceeds ``n / (k + 1)``.

Determinism
-----------
All hashing is seeded through :func:`derive_stream_seed` (the exact
derivation used by the simulator's named RNG streams), so two sketches
built with the same ``(seed, name)`` from the same inputs are equal, and
no global RNG or wall clock is touched anywhere in this module.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.simulation.rng import derive_stream_seed

Key = TypeVar("Key", int, str)
KeyLike = Union[int, str]

_U64 = np.uint64
# SplitMix64 constants as Python ints (scalar path) and uint64 (batch path).
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_1_INT = 0xBF58476D1CE4E5B9
_MIX_2_INT = 0x94D049BB133111EB
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX_1 = np.uint64(_MIX_1_INT)
_MIX_2 = np.uint64(_MIX_2_INT)
_GOLDEN = np.uint64(_GOLDEN_INT)

#: Most keys one sketch remembers the cells of; the memo is cleared when full.
CELL_CACHE_MAX = 1 << 16


def _mix64(values: np.ndarray, seed: int) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, offset by ``seed``.

    Vectorised and branch-free; numpy uint64 arithmetic wraps modulo
    2**64, which is exactly the splitmix semantics.
    """
    x = np.asarray(values, dtype=_U64) + (_U64(seed & _MASK64) ^ _GOLDEN)
    x = (x ^ (x >> _U64(30))) * _MIX_1
    x = (x ^ (x >> _U64(27))) * _MIX_2
    return x ^ (x >> _U64(31))


def _hash_str(value: str, seed: int) -> int:
    """Seeded 64-bit hash of a string (blake2b, deterministic)."""
    digest = hashlib.blake2b(
        f"{seed}:{value}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def hash_key(value: KeyLike, seed: int) -> int:
    """Seeded 64-bit hash of one int or str key, in plain Python ints.

    Strings take the seeded blake2b path of :func:`hash_keys`.  Ints run
    the same SplitMix64 finalizer as :func:`_mix64`, with every step
    masked to 64 bits, so ``hash_key(v, s) == int(hash_keys([v], s)[0])``
    without building a one-element array.  Ints outside ``[0, 2**64)``
    raise ``OverflowError``, as the uint64 conversion of the batch path
    does.
    """
    if isinstance(value, str):
        return _hash_str(value, seed)
    x = operator.index(value)
    if not 0 <= x <= _MASK64:
        raise OverflowError(f"hash key {x} out of bounds for uint64")
    x = (x + ((seed & _MASK64) ^ _GOLDEN_INT)) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_1_INT) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_2_INT) & _MASK64
    return x ^ (x >> 31)


def hash_keys(values: Sequence[KeyLike], seed: int) -> np.ndarray:
    """Seeded 64-bit hashes for a sequence of keys (uint64 array).

    All keys must be of one kind: a mix of str and int keys raises
    ``TypeError`` (an int hashed as its decimal string would disagree
    with :func:`hash_key`).
    """
    if len(values) == 0:
        return np.empty(0, dtype=_U64)
    kinds = [
        issubclass(kind, str) for kind in dict.fromkeys(map(type, values))
    ]
    if all(kinds):
        return np.asarray(
            [_hash_str(v, seed) for v in values], dtype=_U64
        )
    if any(kinds):
        raise TypeError(
            "hash_keys got a mix of str and non-str keys; "
            "hash each kind in its own call"
        )
    return _mix64(np.asarray(values, dtype=_U64), seed)


def _leading_zeros64(x: np.ndarray) -> np.ndarray:
    """Exact count of leading zero bits in 64-bit values, vectorised."""
    x = np.asarray(x, dtype=_U64)
    zero = x == 0
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        small = x < (_U64(1) << _U64(64 - shift))
        n[small] += shift
        x = np.where(small, x << _U64(shift), x)
    n[zero] = 64
    return n


def _remember(cache: Dict[KeyLike, tuple], key: KeyLike, cells: tuple) -> tuple:
    """Cache ``key``'s cells, which follow from the key and the sketch's
    seeds alone: not sketch state, so equality ignores it."""
    if len(cache) >= CELL_CACHE_MAX:
        cache.clear()
    cache[key] = cells
    return cells


class HyperLogLog:
    """HyperLogLog cardinality sketch over a seeded 64-bit hash space.

    ``p`` index bits select one of ``m = 2**p`` registers; each register
    keeps the maximum rank (leading-zero run + 1) seen in the remaining
    ``64 - p`` hash bits.  Relative standard error is ``1.04 / sqrt(m)``;
    the estimator switches to linear counting below ``2.5 * m`` where it
    is essentially exact.
    """

    def __init__(self, seed: int, name: str, p: int = 12):
        if not 4 <= p <= 18:
            raise ValueError(f"HyperLogLog p must be in [4, 18], got {p}")
        self.name = name
        self.p = p
        self.m = 1 << p
        self.seed = derive_stream_seed(seed, name)
        self.registers = np.zeros(self.m, dtype=np.uint8)
        self._cells: Dict[KeyLike, tuple] = {}

    def signature(self) -> Tuple:
        return (self.name, self.p, self.seed)

    @property
    def rel_error(self) -> float:
        """Documented relative standard error: ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self.m)

    def add(self, value: KeyLike) -> None:
        idx, rank = self._cells.get(value) or _remember(
            self._cells, value, self._cell(hash_key(value, self.seed)))
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def _cell(self, h: int) -> Tuple[int, int]:
        """(register index, capped rank) of one hash, in plain ints: the
        same cell as :meth:`add_hashes`, bit for bit."""
        p = self.p
        return h >> (64 - p), min(65 - ((h << p) & _MASK64).bit_length(), 65 - p)

    def add_many(self, values: Sequence[KeyLike]) -> None:
        self.add_hashes(hash_keys(values, self.seed))

    def add_hashes(self, hashes: np.ndarray) -> None:
        """Fold pre-hashed uint64 values (from :func:`hash_keys`) in."""
        if len(hashes) == 0:
            return
        h = np.asarray(hashes, dtype=_U64)
        idx = (h >> _U64(64 - self.p)).astype(np.int64)
        tail = h << _U64(self.p)
        rank = np.minimum(_leading_zeros64(tail) + 1, 64 - self.p + 1)
        np.maximum.at(self.registers, idx, rank.astype(np.uint8))

    def _alpha(self) -> float:
        if self.m == 16:
            return 0.673
        if self.m == 32:
            return 0.697
        if self.m == 64:
            return 0.709
        return 0.7213 / (1.0 + 1.079 / self.m)

    def estimate(self) -> float:
        """Estimated cardinality (small-range linear counting applied)."""
        regs = self.registers.astype(np.float64)
        raw = self._alpha() * self.m * self.m / np.power(2.0, -regs).sum()
        zeros = int((self.registers == 0).sum())
        if raw <= 2.5 * self.m and zeros > 0:
            return self.m * math.log(self.m / zeros)
        return float(raw)

    def interval(self, sigmas: float = 3.0) -> Tuple[float, float]:
        """(low, high) bounds at ``sigmas`` standard errors."""
        est = self.estimate()
        spread = sigmas * self.rel_error * est
        return (max(0.0, est - spread), est + spread)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        return self.signature() == other.signature() and bool(
            np.array_equal(self.registers, other.registers)
        )

    __hash__ = None  # type: ignore[assignment]


class SpaceSaving:
    """Top-k heavy-hitter summary (Misra–Gries form).

    Keeps at most ``capacity`` counters.  When an insert would exceed
    capacity, the (capacity+1)-th largest counter value is subtracted
    from every counter and non-positive counters are dropped — the
    classic Misra–Gries reduction, applied lazily so each stored count
    is a *lower bound* on the key's true frequency:

        ``count(key) <= true(key) <= count(key) + error()``

    ``error()`` is the accumulated decrement; keys with true frequency
    above it can never have been evicted.  Ties in ``top()`` break on the
    key, so rendered tables are deterministic.
    """

    def __init__(self, capacity: int, name: str = "spacesaving"):
        if capacity < 1:
            raise ValueError("SpaceSaving capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.counts: Dict[KeyLike, int] = {}
        self.n = 0
        self.decremented = 0

    def signature(self) -> Tuple:
        return (self.name, self.capacity)

    def add(self, key: KeyLike, count: int = 1) -> None:
        if count <= 0:
            return
        self.n += count
        self.counts[key] = self.counts.get(key, 0) + count
        if len(self.counts) > self.capacity:
            self._reduce()

    def add_many(self, keys: Sequence[KeyLike]) -> None:
        """``add`` each key once, in order (eviction depends on the order)."""
        counts = self.counts
        capacity = self.capacity
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
            if len(counts) > capacity:
                self._reduce()
                counts = self.counts
        self.n += len(keys)

    def _reduce(self) -> None:
        # Subtract the (capacity+1)-th largest counter from everything;
        # at most ``capacity`` strictly larger counters can survive.  It
        # is the (len - capacity)-th smallest: the minimum when one key
        # overflows, as on every add.
        pivot = heapq.nsmallest(len(self.counts) - self.capacity,
                                self.counts.values())[-1]
        self.counts = {
            key: count - pivot
            for key, count in self.counts.items()
            if count > pivot
        }
        self.decremented += pivot

    def error(self) -> int:
        """Upper bound on how far any stored count undershoots the truth."""
        return self.decremented

    def estimate(self, key: KeyLike) -> Tuple[int, int]:
        """(lower, upper) frequency bounds for ``key`` (0-based if absent)."""
        lower = self.counts.get(key, 0)
        return (lower, lower + self.decremented)

    def top(self, k: Optional[int] = None) -> List[Tuple[KeyLike, int, int]]:
        """The ``k`` heaviest keys as ``(key, lower, upper)`` tuples.

        Ordered by descending lower bound, then ascending key — a total
        order, so output is independent of insertion order.
        """
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if k is not None:
            ranked = ranked[:k]
        return [(key, count, count + self.decremented) for key, count in ranked]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpaceSaving):
            return NotImplemented
        return (
            self.signature() == other.signature()
            and self.n == other.n
            and self.decremented == other.decremented
            and self.counts == other.counts
        )

    __hash__ = None  # type: ignore[assignment]


class ExactCounter:
    """Exact online accumulator for low-cardinality keyed counts.

    Used where approximation buys nothing: the five-way category mix and
    sessions-per-day table, where streaming answers equal the batch
    group-by exactly.
    """

    def __init__(self, name: str = "exact"):
        self.name = name
        self.counts: Dict[KeyLike, int] = {}
        self.total = 0

    def signature(self) -> Tuple:
        return (self.name,)

    def add(self, key: KeyLike, count: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + count
        self.total += count

    def add_many(self, keys: Sequence[KeyLike]) -> None:
        """``add`` each key once, in one loop."""
        counts = self.counts
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        self.total += len(keys)

    def get(self, key: KeyLike) -> int:
        return self.counts.get(key, 0)

    def items(self) -> List[Tuple[KeyLike, int]]:
        """Key-sorted (key, count) pairs — deterministic output order."""
        return sorted(self.counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactCounter):
            return NotImplemented
        return (
            self.signature() == other.signature()
            and self.total == other.total
            and self.counts == other.counts
        )

    __hash__ = None  # type: ignore[assignment]
