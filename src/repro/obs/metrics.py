"""The metrics registry: counters, gauges, histograms, and spans.

A :class:`Metrics` object is a plain in-process registry with four kinds of
instruments:

* **counters** — monotonically accumulated floats (``inc``);
* **gauges** — last-set or running-max values (``gauge_set`` / ``gauge_max``);
* **histograms** — raw observed samples with percentile queries
  (``observe`` and the :meth:`Metrics.timer` context manager);
* **spans** — hierarchical wall-clock / CPU stage timings (``span``).

Everything is zero-dependency pure Python, serialises to plain dicts
(:meth:`Metrics.to_dict`) and merges dicts or registries
associatively (:meth:`Metrics.merge`), which is what makes the registry
multiprocess-safe: each worker records into its own registry, ships the
dict back with its shard, and the parent folds the dicts in shard order.

A module-level *current* registry (:func:`get_metrics`) is what the
instrumented code paths write to; :func:`use_metrics` swaps a fresh (or
given) registry in for a scope, which is how workers and tests isolate
their measurements.
"""

from __future__ import annotations

import math
# Deterministically seeded reservoir sampling (Algorithm R) — not a
# simulation draw; sim randomness flows through named RngStreams.
import random  # repro: lint-ok[global-random]
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union


class Histogram:
    """Raw-sample histogram with percentile queries.

    **Uncapped** (the default), samples are kept verbatim (instrumented
    sites observe per-block or per-shard quantities, so cardinality stays
    small) which keeps merges exact: concatenating two histograms is the
    same as observing both sample sets into one.

    **Capped** (``cap=N``), the sample list is a fixed-size reservoir
    (Algorithm R with a deterministic per-instance rng) so unbounded
    observation streams — per-session latencies in a million-session live
    run — cannot grow memory without bound.  ``count`` / ``total`` /
    ``mean`` / ``max`` stay exact (tracked as scalars alongside the
    reservoir); percentiles become reservoir estimates.  The tradeoff is
    the merge: a capped histogram's payload does not fold, which is why
    the multiprocess pipeline instruments keep the uncapped default.
    """

    __slots__ = ("values", "cap", "_count", "_total", "_max", "_rng")

    def __init__(self, values: Optional[List[float]] = None,
                 cap: Optional[int] = None):
        self.cap = int(cap) if cap else None
        self._rng = random.Random(0x5EED) if self.cap else None
        self.values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        if values:
            for v in values:
                self.observe(v)

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._total += value
        if value > self._max or self._count == 1:
            self._max = value
        cap = self.cap
        if cap is None or len(self.values) < cap:
            self.values.append(value)
        else:
            # Algorithm R: the i-th observation replaces a reservoir slot
            # with probability cap/i, keeping a uniform sample of the stream.
            j = self._rng.randrange(self._count)
            if j < cap:
                self.values[j] = value

    def observe_repeated(self, value: float, n: int) -> None:
        """``observe(value)`` ``n`` times, without ``n`` reservoir draws.

        ``count`` and ``max`` stay exact, and so does ``total`` whenever
        ``value * n`` is (always for zero).  Past the cap, the repeats make
        Algorithm R's expected number of replacements, ``cap * ln(count /
        (count - n))`` stochastically rounded, each at a uniform slot.
        """
        value = float(value)
        fill = n if self.cap is None else min(n, self.cap - len(self.values))
        for _ in range(fill):
            self.observe(value)
        rest = n - fill
        if rest <= 0:
            return
        self._count += rest
        self._total += value * rest
        self._max = max(self._max, value)
        rng, cap = self._rng, self.cap
        assert rng is not None and cap is not None  # only a capped list fills
        events = cap * math.log(self._count / (self._count - rest))
        for _ in range(int(events) + (rng.random() < events - int(events))):
            self.values[int(rng.random() * cap)] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100].

        Exact for uncapped histograms; a reservoir estimate once capped.
        """
        if not self.values:
            return 0.0
        xs = sorted(self.values)
        rank = (len(xs) - 1) * (p / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return xs[int(rank)]
        return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)

    # -- serialisation ---------------------------------------------------------

    def to_payload(self):
        """Dict-form payload: a bare sample list while exact (uncapped),
        a ``{values, count, total, max, cap}`` object once capped."""
        if self.cap is None:
            return list(self.values)
        return {
            "values": list(self.values),
            "count": self._count,
            "total": self._total,
            "max": self._max,
            "cap": self.cap,
        }

    def merge_payload(self, values: List[float]) -> None:
        """Fold an uncapped histogram's payload (its bare sample list) into
        this uncapped one: plain concatenation, exactly as if both sample
        sets had been observed into one.  Capped histograms live only in
        the live monitor's registry, which nothing merges."""
        count = len(values)
        self.values.extend(float(v) for v in values)
        self._count += count
        self._total += float(sum(values))
        peak = float(max(values)) if values else 0.0
        if count and (peak > self._max or self._count == count):
            self._max = peak


def _new_span_cell() -> Dict[str, float]:
    return {"count": 0, "wall": 0.0, "cpu": 0.0}


class Stopwatch:
    """An elapsed-wall-time handle — the obs layer's clock for callers.

    Pipeline code outside ``repro.obs`` must not read real time directly
    (the ``wall-clock`` lint rule; host timing must never leak into
    results that are a pure function of config + seed).  Code that wants
    to *measure* itself starts a stopwatch and asks it for the interval,
    keeping every wall-clock read inside this one auditable layer::

        watch = stopwatch()
        ...work...
        metrics.observe("store.freeze_seconds", watch.elapsed())
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._t0


def stopwatch() -> Stopwatch:
    """Start and return a :class:`Stopwatch`."""
    return Stopwatch()


class Metrics:
    """One registry of counters, gauges, histograms and span timings."""

    __slots__ = ("counters", "gauges", "histograms", "spans", "_stack")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: span path ("generate/plan/campaigns") -> {count, wall, cpu}
        self.spans: Dict[str, Dict[str, float]] = {}
        self._stack: List[str] = []

    # -- counters / gauges / histograms -------------------------------------

    def inc(self, name: str, n: float = 1) -> None:
        # try/except beats .get(): existing keys (the steady state on hot
        # paths) pay a single hash lookup and no bound-method call.
        try:
            self.counters[name] += n
        except KeyError:
            self.counters[name] = n

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        g = self.gauges
        if value > g.get(name, float("-inf")):
            g[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str, cap: Optional[int] = None) -> Histogram:
        """Get-or-create histogram ``name`` (``cap`` applies on creation).

        Unbounded-stream observers (the live farm-health monitor) create
        their histograms through this with a reservoir cap; pipeline
        instruments keep the exact uncapped default via :meth:`observe`.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(cap=cap)
        return hist

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into histogram ``name`` (seconds)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a hierarchical stage timing.

        Nested spans build slash-joined paths: ``span("generate")``
        containing ``span("merge")`` records under ``generate`` and
        ``generate/merge``.  Wall time is ``time.perf_counter`` and CPU
        time ``time.process_time``, both accumulated per path.
        """
        path = f"{self._stack[-1]}/{name}" if self._stack else name
        self._stack.append(path)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            self._stack.pop()
            cell = self.spans.get(path)
            if cell is None:
                cell = self.spans[path] = _new_span_cell()
            cell["count"] += 1
            cell["wall"] += time.perf_counter() - wall0
            cell["cpu"] += time.process_time() - cpu0

    # -- serialisation / merge -------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-dict (JSON-serialisable, picklable) form of the registry."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_payload() for k, h in self.histograms.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
        }

    def merge(
        self,
        other: Union["Metrics", Dict],
        span_prefix: Optional[str] = None,
    ) -> None:
        """Fold another registry (or its dict form) into this one.

        Counters and span cells sum, histograms concatenate, gauges keep
        the maximum (every shipped gauge is a high-water mark).  With
        ``span_prefix`` the other registry's span paths are re-rooted
        under ``<span_prefix>/...`` — used to nest worker-side stage
        timings under the parent's pipeline tree.
        """
        data = other.to_dict() if isinstance(other, Metrics) else other
        for name, value in data.get("counters", {}).items():
            self.inc(name, value)
        for name, value in data.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, payload in data.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_payload(payload)
        for path, cell in data.get("spans", {}).items():
            if span_prefix:
                path = f"{span_prefix}/{path}"
            mine = self.spans.get(path)
            if mine is None:
                mine = self.spans[path] = _new_span_cell()
            mine["count"] += cell.get("count", 0)
            mine["wall"] += cell.get("wall", 0.0)
            mine["cpu"] += cell.get("cpu", 0.0)


# -- the current registry ------------------------------------------------------

_CURRENT = Metrics()


def get_metrics() -> Metrics:
    """The registry instrumented code paths are currently writing to."""
    return _CURRENT


@contextmanager
def use_metrics(metrics: Optional[Metrics] = None) -> Iterator[Metrics]:
    """Swap ``metrics`` (default: a fresh registry) in for the scope.

    This is how shard workers and tests isolate their measurements: code
    inside the block writes to the swapped-in registry, which the caller
    keeps after the previous registry is restored.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = metrics if metrics is not None else Metrics()
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous


def inc(name: str, n: float = 1) -> None:
    """Increment a counter on the current registry (hot-path shorthand)."""
    c = _CURRENT.counters
    try:
        c[name] += n
    except KeyError:
        c[name] = n
