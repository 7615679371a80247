"""Shared, lazily memoized analysis state.

:class:`AnalysisContext` wraps a store and computes each expensive
intermediate (category codes, the hash-occurrence index, per-client
groupbys) at most once, on first access.  Every ``repro.core`` entry point
accepts either a plain :class:`~repro.store.store.SessionStore` (computing
what it needs) or a context (reusing what has already been computed).
:meth:`AnalysisContext.from_dataset` hands out one context per dataset and
store, so ``full_report`` and ``validate`` on one dataset share it.

Every distinct count over clients, pots and days (Figures 10-16, 23, 24)
derives from three tables (DESIGN §6l): :attr:`~AnalysisContext.client_table`
(sorted unique client IPs, their countries, a dense per-session client code)
and two :class:`DistinctTuples` — distinct (client, pot, category) and
(client, day, relation, category), relation being the
:func:`repro.core.diversity.session_relations` bit.  A call with a session
``mask`` builds the same table over the masked sessions.

The properties resolve ``classify`` / ``hashes`` / ``clients`` through their
modules at call time, so tests (and callers) that monkeypatch e.g.
``repro.core.classify.classify_store`` observe exactly one call per context.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import get_metrics
from repro.obs import inc as _metric_inc
from repro.store.store import SessionStore


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index where each run of equal adjacent ``values`` starts."""
    return np.append(0, np.flatnonzero(values[1:] != values[:-1]) + 1)[:len(values)]


class DistinctTuples:
    """Distinct tuples of small non-negative ints as sorted uint64 ``keys``.

    Fields are ``name=(per-session values, bit width)``, most significant
    first, so every prefix of fields is a contiguous run of keys.  A value
    outside its width, or more than 64 bits in all, raise OverflowError.
    """

    def __init__(self, **fields: Tuple[np.ndarray, int]):
        widths = [width for _, width in fields.values()]
        if sum(widths) > 64:
            raise OverflowError(f"fields {list(fields)} exceed 64 bits")
        #: name -> (shift, width) of the field inside a key.
        self._shift = {name: (sum(widths[i + 1:]), widths[i])
                       for i, name in enumerate(fields)}
        key = np.zeros(len(next(iter(fields.values()))[0]), dtype=np.uint64)
        for name, (values, width) in fields.items():
            if len(values) and (values.min() < 0 or int(values.max()) >> width):
                raise OverflowError(f"{name} does not fit {width} bits")
            key = (key << np.uint64(width)) | values.astype(np.uint64)
        key.sort()  # much faster than np.unique's hash path on uint64
        self.keys = key[_run_starts(key)]

    def field(self, name: str, keys: np.ndarray) -> np.ndarray:
        shift, width = self._shift[name]
        mask = np.uint64((1 << width) - 1)
        return ((keys >> np.uint64(shift)) & mask).astype(np.intp)

    def rows(self, category: Optional[int] = None) -> np.ndarray:
        """Keys of one category (every key for ``None``)."""
        if category is None:
            return self.keys
        return self.keys[self.field("category", self.keys) == category]

    def runs(self, keys: np.ndarray, through: str) -> np.ndarray:
        """Start of each run of sorted ``keys`` equal in all fields to ``through``."""
        return _run_starts(keys >> np.uint64(self._shift[through][0]))

    def groups(self, keys: np.ndarray, through: str) -> Tuple[np.ndarray, np.ndarray]:
        """First key and size of each run of ``keys`` (see :meth:`runs`)."""
        starts = self.runs(keys, through)
        return keys[starts], np.diff(np.append(starts, len(keys)))

    def distinct(self, through: str, category: Optional[int] = None) -> np.ndarray:
        """One key per distinct prefix up to ``through`` among ``category``'s rows."""
        keys = self.rows(category)
        return keys[self.runs(keys, through)]


class ClientTable(NamedTuple):
    ips: np.ndarray  # sorted unique client IPs
    country: np.ndarray  # country id of each IP (its first session's)
    code: np.ndarray  # per session: index of its IP in ``ips``


class AnalysisContext:
    """A store plus memoized derived state shared across analyses.

    Every memoized value counts its cache traffic into the current
    metrics registry (``context.<name>.hit`` / ``.miss``), so a report
    run shows exactly how much recomputation the shared context saved.
    """

    def __init__(self, store: SessionStore, intel=None,
                 pot_countries: Optional[Sequence[str]] = None):
        self.store = store
        self.intel = intel
        self.pot_countries = None if pot_countries is None else tuple(pot_countries)
        self._memo_values: Dict[tuple, object] = {}

    @classmethod
    def from_dataset(cls, dataset) -> "AnalysisContext":
        """The one context over a dataset's store, with its intel and pot
        countries; kept on the dataset until ``dataset.store`` is replaced."""
        ctx = getattr(dataset, "_analysis_context", None)
        if ctx is None or ctx.store is not dataset.store:
            ctx = cls(dataset.store, intel=dataset.intel,
                      pot_countries=[s.country for s in dataset.deployment.sites])
            dataset._analysis_context = ctx
        return ctx

    # -- memoized intermediates and distinct-tuple tables ----------------------

    def _memo(self, name: str, compute, key=None):
        """``compute()`` once per ``(name, key)``, counting hits and misses."""
        hit = (name, key) in self._memo_values
        _metric_inc(f"context.{name}.{'hit' if hit else 'miss'}")
        _metric_inc(f"context.{'hits' if hit else 'misses'}")
        if not hit:
            self._memo_values[(name, key)] = compute()
        return self._memo_values[(name, key)]

    @property
    def category_codes(self) -> np.ndarray:
        """Per-session category codes (indices into ``classify.CATEGORIES``)."""
        from repro.core import classify

        return self._memo("category_codes", lambda: classify.classify_store(self.store))

    def category_mask(self, index: int) -> np.ndarray:
        """Boolean session mask for category code ``index``."""
        return self._memo("category_mask", lambda: self.category_codes == index, index)

    @property
    def hash_occurrences(self):
        """The (session, hash) occurrence index (``HashOccurrences``)."""
        from repro.core import hashes

        return self._memo("hash_occurrences",
                          lambda: hashes.HashOccurrences.build(self.store))

    @property
    def hash_stats(self):
        """Per-hash aggregate stats derived from :attr:`hash_occurrences`."""
        from repro.core import hashes

        return self._memo("hash_stats",
                          lambda: hashes.compute_hash_stats(self.hash_occurrences))

    @property
    def daily_totals(self) -> np.ndarray:
        """Farm-wide session count per day."""
        from repro.core import timeseries

        return self._memo("daily_totals", lambda: timeseries.daily_totals(self.store))

    @property
    def pots_per_client(self) -> np.ndarray:
        """Distinct honeypots contacted per client IP (no mask)."""
        from repro.core import clients

        return self._memo("pots_per_client", lambda: clients.honeypots_per_client(self))

    @property
    def days_per_client(self) -> np.ndarray:
        """Distinct active days per client IP (no mask)."""
        from repro.core import clients

        return self._memo("days_per_client", lambda: clients.days_per_client(self))

    @property
    def client_table(self) -> ClientTable:
        """Unique client IPs, their countries and per-session client codes."""
        def build():
            with get_metrics().span("core/ctx/client_table"):
                ips, first, code = np.unique(
                    self.store.client_ip, return_index=True, return_inverse=True)
                return ClientTable(ips, self.store.client_country[first], code)
        return self._memo("client_table", build)

    def client_pots(self, mask: Optional[np.ndarray] = None) -> DistinctTuples:
        """Distinct (client, pot, category) over all (or the masked) sessions."""
        return self._table("client_pot", None, mask, lambda rows: {"pot": (
            self.store.honeypot[rows], self.store.n_honeypots.bit_length())})

    def client_days(self, mask: Optional[np.ndarray] = None,
                    pot_countries: Optional[Sequence[str]] = None) -> DistinctTuples:
        """Distinct (client, day, relation, category); relation is a session's
        client/pot relation bit against ``pot_countries`` (default: the
        context's; 0 when neither is known)."""
        pots = self.pot_countries if pot_countries is None else tuple(pot_countries)

        def fields(rows):
            from repro.core import diversity

            day = self.store.day[rows]
            relation = (np.zeros(len(day), np.uint8) if pots is None
                        else diversity.session_relations(self.store, pots, mask))
            return {"day": (day, self.store.n_days.bit_length()),
                    "relation": (relation, 3)}
        return self._table("client_day", pots, mask, fields)

    def _table(self, name: str, key, mask: Optional[np.ndarray],
               fields) -> DistinctTuples:
        """Distinct (client, ``fields(rows)``..., category), memoized per
        ``(name, key)`` when unmasked.  Categories (0-4, or 0 for every
        masked session) take 3 bits."""
        def build():
            rows = slice(None) if mask is None else mask
            client = self.client_table.code[rows]
            category = (self.category_codes if mask is None
                        else np.zeros(len(client), np.int8))
            with get_metrics().span(f"core/ctx/{name}"):
                return DistinctTuples(
                    client=(client, len(self.client_table.ips).bit_length()),
                    **fields(rows), category=(category, 3))
        return build() if mask is not None else self._memo(name, build, key)


#: What every ``repro.core`` entry point accepts in its store argument.
StoreOrContext = Union[SessionStore, AnalysisContext]


def as_context(obj: StoreOrContext) -> AnalysisContext:
    """Coerce a store-or-context argument to a context.

    Stores get a fresh private context (the pre-context behaviour: derived
    state is computed on demand and shared within the one call).  Contexts
    pass through, so repeated calls share their memoized state.
    """
    if isinstance(obj, AnalysisContext):
        return obj
    return AnalysisContext(obj)


def as_store(obj: StoreOrContext) -> SessionStore:
    """Unwrap a store-or-context argument to the underlying store.

    For functions that only read raw columns and have nothing to memoize.
    """
    if isinstance(obj, AnalysisContext):
        return obj.store
    return obj
