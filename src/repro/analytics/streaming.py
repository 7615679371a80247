"""Streaming analytics over the live event stream or a frozen store.

:class:`StreamingAnalytics` ingests the same per-session events as
:class:`repro.farm.health.FarmHealthMonitor` — attach :meth:`on_event` as a
``LiveFarm`` event tap, or :meth:`feed` recorded flight-recorder dicts —
and answers the headline aggregate queries of the batch
:class:`~repro.core.context.AnalysisContext` without ever freezing a
dataset:

* **exact** (``ExactCounter``): session counts, the five-way category
  mix, and sessions per day — streaming answers equal the batch
  group-bys bit for bit;
* **approximate** (sketches, documented error bounds): unique client
  IPs and unique file hashes (:class:`HyperLogLog`), and top-k hash /
  client / ASN tables (:class:`SpaceSaving`).

Per-session semantics match the batch path: repeated hashes within one
session count once (``HashOccurrences.build`` dedups the same way), and
ASNs below zero (unknown) are excluded like ``unique_as_count``.  Bulk
``generator.block`` events carry no client/hash detail, so they update
only the exact session/category/day accumulators — the same degradation
the health monitor applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple

import numpy as np

from repro.analytics.sketches import ExactCounter, HyperLogLog, SpaceSaving
from repro.honeypot.events import (
    CATEGORY_NAMES,
    SESSION_STEPS,
    HoneypotEvent,
    OpenSession,
    Step,
    block_category,
    category_codes,
    session_category,
)
from repro.obs import get_metrics
from repro.store.store import SessionStore

#: Sessions per fold: ``ingest_store`` reads a store this many rows at a
#: time, and the event path folds its pending sessions when this many
#: have closed.
FOLD_BATCH = 4096

_Data = Dict[str, Any]
#: The columns of a batch of finished sessions, in session order: one
#: category and one day per session, then the known client IPs, the known
#: ASNs (>= 0) and each session's distinct hashes back to back.
_Columns = Tuple[List[str], List[int], List[int], List[int], List[str]]


@dataclass(frozen=True)
class AnalyticsConfig:
    """Sketch sizing and the determinism seed.

    Defaults target the paper-scale aggregates: ``hll_p=12`` gives a
    1.6 % relative standard error on cardinalities, and
    ``topk_capacity=512`` keeps top-k tables exact until the stream holds
    more than 512 distinct keys.
    """

    seed: int = 2023
    hll_p: int = 12
    topk_capacity: int = 512


class StreamingAnalytics:
    """Streaming counterpart of the batch aggregate queries."""

    def __init__(self, config: Optional[AnalyticsConfig] = None):
        cfg = config or AnalyticsConfig()
        self.config = cfg
        self.hll_clients = HyperLogLog(cfg.seed, "analytics.hll.clients", cfg.hll_p)
        self.hll_hashes = HyperLogLog(cfg.seed, "analytics.hll.hashes", cfg.hll_p)
        self.topk_hashes = SpaceSaving(cfg.topk_capacity, "analytics.topk.hashes")
        self.topk_clients = SpaceSaving(cfg.topk_capacity, "analytics.topk.clients")
        self.topk_asns = SpaceSaving(cfg.topk_capacity, "analytics.topk.asns")
        self.mix = ExactCounter("analytics.mix")
        self.days = ExactCounter("analytics.days")
        self.events_seen = 0
        self._sessions: Dict[str, OpenSession] = {}
        #: Sessions closed but not yet folded; empty between public calls.
        self._pending: _Columns = ([], [], [], [], [])
        #: Pending sessions that trigger a fold: 1, or ``FOLD_BATCH``
        #: inside :meth:`feed_many`, which folds the rest on return.
        self._fold_at = 1

    # -- canonical per-session intake -------------------------------------

    def observe_session(
        self,
        *,
        category: str,
        day: int,
        client_ip: Optional[int] = None,
        asn: Optional[int] = None,
        hashes: Sequence[str] = (),
    ) -> None:
        """Fold one finished session in (the canonical intake).

        ``hashes`` are deduplicated here, matching the batch
        ``HashOccurrences.build`` per-session dedup.  Inside
        :meth:`feed_many` the session joins a pending batch, folded when
        it holds :data:`FOLD_BATCH` sessions and before ``feed_many``
        returns; otherwise it is folded at once.
        """
        # Check before appending, so a bad session raises here, whole,
        # rather than in a later fold.
        day = int(day)
        ip = None if client_ip is None else int(client_ip)
        if ip is not None and not 0 <= ip < 1 << 64:
            raise OverflowError(f"client IP {ip} out of bounds for uint64")
        asn = None if asn is None else int(asn)
        distinct = dict.fromkeys(hashes) if hashes else ()
        categories, days, ips, asns, shas = self._pending
        categories.append(category)
        days.append(day)
        if ip is not None:
            ips.append(ip)
        if asn is not None and asn >= 0:
            asns.append(asn)
        shas.extend(distinct)
        if len(categories) >= self._fold_at:
            self._fold_pending()

    def _fold_pending(self) -> None:
        pending = self._pending
        if pending[0]:
            self._pending = ([], [], [], [], [])
            self._fold(*pending)

    def _fold(self, categories: Sequence[str], days: Sequence[int],
              ips: Sequence[int], asns: Sequence[int],
              hashes: Sequence[str]) -> None:
        """Fold the columns of a batch of finished sessions (``_Columns``).

        The HLLs take each distinct key once.  The exact counters count
        the batch in one loop each, and the top-k tables walk it in order,
        because Misra–Gries eviction depends on it.
        """
        get_metrics().inc("sketch.sessions_observed", len(categories))
        self.mix.add_many(categories)
        self.days.add_many(days)
        for ip in dict.fromkeys(ips):
            self.hll_clients.add(ip)
        self.topk_clients.add_many(ips)
        self.topk_asns.add_many(asns)
        if hashes:
            for sha in dict.fromkeys(hashes):
                self.hll_hashes.add(sha)
            self.topk_hashes.add_many(hashes)

    def _closed(self, record: OpenSession) -> None:
        """The lifecycle's close: the session goes to :meth:`observe_session`."""
        self.observe_session(
            category=session_category(record.attempted, record.success,
                                      record.commands, record.uris),
            day=int(record.start // 86_400), client_ip=record.client_ip,
            asn=record.asn, hashes=record.hashes)

    # -- event-stream intake (health-monitor shaped) -----------------------

    def on_event(self, event: HoneypotEvent) -> None:
        """Honeypot event-sink entry (``LiveFarm(event_tap=...)``)."""
        self.events_seen += 1
        get_metrics().inc("sketch.events_consumed")
        step = _STEPS.get(event.event_type.value)
        if step is not None:
            step(self, event.timestamp, event.session_id, event.data)

    def feed(self, event: Dict[str, Any]) -> None:
        """One flight-recorder event dict (tailed JSONL or Tracer buffer)."""
        self._feed((event,))

    def feed_many(self, events: Iterable[Dict[str, Any]]) -> int:
        """Event dicts in order; returns how many were read.

        The sessions they close are folded :data:`FOLD_BATCH` at a time.
        """
        self._fold_at = FOLD_BATCH
        try:
            return self._feed(events)
        finally:
            self._fold_at = 1
            self._fold_pending()

    def _feed(self, events: Iterable[Dict[str, Any]]) -> int:
        """Count each event and apply its kind's step (none for unknown
        kinds); one with no ``ts`` is skipped unless a block."""
        before = self.events_seen
        count = 0
        try:
            for event in events:
                count += 1
                kind = event.get("kind", "")
                ts = event.get("ts")
                if ts is not None or kind == "generator.block":
                    data = event.get("data") or {}
                    self.events_seen += 1
                    step = _STEPS.get(kind)
                    if step is not None:
                        step(self, ts, data.get("session", ""), data)
        finally:
            if self.events_seen > before:
                get_metrics().inc("sketch.events_consumed", self.events_seen - before)
        return count

    # -- frozen-store intake ----------------------------------------------

    def ingest_store(self, store: SessionStore) -> int:
        """Fold a frozen store in, :data:`FOLD_BATCH` rows at a time.

        Each chunk becomes the columns the event path batches, with the
        category derived by the same rules, so both intakes end in one
        fold.
        """
        metrics = get_metrics()
        with metrics.span("sketch/ingest"):
            n = len(store)
            sha_of = np.array(store.hashes.values(), dtype=object)
            offsets = store.hash_ids.offsets
            for lo in range(0, n, FOLD_BATCH):
                hi = min(lo + FOLD_BATCH, n)
                codes = category_codes(
                    store.n_attempts[lo:hi], store.login_success[lo:hi],
                    store.n_commands[lo:hi], store.has_uri[lo:hi])
                asns = store.client_asn[lo:hi]
                self._fold(
                    [CATEGORY_NAMES[c] for c in codes.tolist()],
                    (store.start_time[lo:hi] // 86_400).astype(np.int64).tolist(),
                    store.client_ip[lo:hi].tolist(),
                    asns[asns >= 0].tolist(),
                    sha_of[_distinct_per_row(
                        store.hash_ids.values[offsets[lo]:offsets[hi]],
                        offsets[lo:hi + 1])].tolist(),
                )
            metrics.inc("sketch.store_sessions_ingested", n)
        return n

    # -- query surface (the batch AnalysisContext counterparts) ------------

    def session_count(self) -> int:
        """Total closed sessions (exact; == ``len(store)``)."""
        return self.mix.total

    def category_counts(self) -> Dict[str, int]:
        """Exact sessions per category (== batch ``classify_store`` bincount)."""
        return {cat: self.mix.get(cat) for cat in CATEGORY_NAMES}

    def category_shares(self) -> Dict[str, float]:
        """Exact category mix (== batch ``classify.category_shares``)."""
        n = self.mix.total
        if n == 0:
            return {cat: 0.0 for cat in CATEGORY_NAMES}
        return {cat: self.mix.get(cat) / n for cat in CATEGORY_NAMES}

    def sessions_per_day(self, n_days: Optional[int] = None) -> np.ndarray:
        """Exact farm-wide daily totals (== ``timeseries.daily_totals``)."""
        if not self.days.counts:
            return np.zeros(n_days or 0, dtype=np.int64)
        size = max(max(self.days.counts) + 1, n_days or 0)
        out = np.zeros(size, dtype=np.int64)
        for day, count in self.days.items():
            out[day] = count
        return out

    def unique_clients(self) -> float:
        """Estimated unique client IPs (HLL; ``rel_error`` documented)."""
        return self.hll_clients.estimate()

    def unique_hashes(self) -> float:
        """Estimated unique file hashes observed (HLL)."""
        return self.hll_hashes.estimate()

    def top_hashes(self, k: int = 10) -> List[Tuple[str, int, int]]:
        """Top-k hashes by session count as ``(sha, lower, upper)``."""
        return self.topk_hashes.top(k)

    def top_clients(self, k: int = 10) -> List[Tuple[int, int, int]]:
        """Top-k client IPs by session count as ``(ip, lower, upper)``."""
        return self.topk_clients.top(k)

    def top_asns(self, k: int = 10) -> List[Tuple[int, int, int]]:
        """Top-k ASNs by session count (unknown ASNs excluded)."""
        return self.topk_asns.top(k)

    # -- export ------------------------------------------------------------

    def export_gauges(self) -> None:
        """Publish the headline cardinalities to the metrics registry."""
        metrics = get_metrics()
        metrics.gauge_set("sketch.unique.clients", round(self.unique_clients()))
        metrics.gauge_set("sketch.unique.hashes", round(self.unique_hashes()))

    def render_panels(self, k: int = 8) -> str:
        """Human-readable uniques / mix / top-k panels (CLI surface)."""
        lines = [
            f"streaming analytics — {self.session_count():,} sessions, "
            f"{self.events_seen:,} events"
        ]
        c_lo, c_hi = self.hll_clients.interval()
        h_lo, h_hi = self.hll_hashes.interval()
        lines.append(
            f"  unique clients ~ {self.unique_clients():,.0f} "
            f"(3σ {c_lo:,.0f}..{c_hi:,.0f})   "
            f"unique hashes ~ {self.unique_hashes():,.0f} "
            f"(3σ {h_lo:,.0f}..{h_hi:,.0f})"
        )
        shares = self.category_shares()
        mix = "  ".join(f"{cat} {shares[cat] * 100:5.1f}%" for cat in CATEGORY_NAMES)
        lines.append(f"  category mix: {mix}")
        for title, table in (
            ("top hashes", self.top_hashes(k)),
            ("top clients", self.top_clients(k)),
            ("top ASNs", self.top_asns(k)),
        ):
            if not table:
                continue
            err = table[0][2] - table[0][1]
            lines.append(f"  {title} (sessions, lower bound; +err <= {err}):")
            for key, lower, _upper in table:
                lines.append(f"    {key!s:>44}  {lower:>8,}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingAnalytics):
            return NotImplemented
        return (
            self.config == other.config
            and self.hll_clients == other.hll_clients
            and self.hll_hashes == other.hll_hashes
            and self.topk_hashes == other.topk_hashes
            and self.topk_clients == other.topk_clients
            and self.topk_asns == other.topk_asns
            and self.mix == other.mix
            and self.days == other.days
        )

    __hash__ = None  # type: ignore[assignment]


def _distinct_per_row(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values`` without repeats within a CSR row, first occurrences in
    order (the ``dict.fromkeys`` of each row, back to back)."""
    if len(values) == 0:
        return values
    rows = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    pairs = rows * (int(values.max()) + 1) + values
    _, first = np.unique(pairs, return_index=True)
    if len(first) == len(values):
        return values
    return values[np.sort(first)]


def _block(analytics: StreamingAnalytics, ts: Any, session: str, data: _Data) -> None:
    """Bulk-path block: exact counts only (no client/hash detail)."""
    sessions = int(data.get("sessions", 0))
    if sessions <= 0 or ts is None:
        return
    category = block_category(data) or "CMD"
    analytics.mix.add(category, sessions)
    analytics.days.add(int(float(ts) // 86_400), sessions)
    get_metrics().inc("sketch.sessions_observed", sessions)


#: The one dispatch of every intake path: the session lifecycle plus the
#: bulk block.  Other kinds count in ``events_seen`` and change nothing else.
_STEPS: Dict[str, Step] = {"generator.block": _block, **SESSION_STEPS}


def iter_session_events(store: SessionStore) -> Iterator[Dict[str, Any]]:
    """Replay a frozen store as flight-recorder-shaped event dicts.

    Yields the per-session lifecycle (connect, logins, commands, file
    events, close) each row implies, suitable for :meth:`.feed` — the
    event-path and store-path intakes then produce identical analytics.
    Command events are capped at 8 per session (category only needs the
    count to be nonzero); timestamps interpolate across the session
    duration, so replay is fully deterministic.
    """
    n = len(store)
    starts = store.start_time.tolist()
    durations = store.duration.tolist()
    pots = store.honeypot.tolist()
    pot_names = [store.honeypots.value_of(i) for i in range(len(store.honeypots))]
    ips = store.client_ip.tolist()
    asns = store.client_asn.tolist()
    attempts = store.n_attempts.tolist()
    success = store.login_success.tolist()
    commands = store.n_commands.tolist()
    has_uri = store.has_uri.tolist()
    offsets = store.hash_ids.offsets.tolist()
    values = store.hash_ids.values.tolist()
    sha_of = [store.hashes.value_of(i) for i in range(len(store.hashes))]
    seq = 0
    for i in range(n):
        session = f"session:{i}"
        sensor = pot_names[pots[i]]
        base = {"sensor": sensor, "session": session}
        start = starts[i]
        steps: List[Tuple[str, Dict[str, Any]]] = [
            (
                "honeypot.session.connect",
                {**base, "src_ip": ips[i], "src_asn": asns[i]},
            )
        ]
        n_attempts = attempts[i]
        if n_attempts > 0:
            last = "honeypot.login.success" if success[i] else "honeypot.login.failed"
            steps.extend(
                ("honeypot.login.failed", dict(base)) for _ in range(n_attempts - 1)
            )
            steps.append((last, dict(base)))
        if success[i]:
            steps.extend(
                ("honeypot.command.input", dict(base))
                for _ in range(min(commands[i], 8))
            )
        shas = [sha_of[h] for h in values[offsets[i] : offsets[i + 1]]]
        if has_uri[i]:
            if shas:
                steps.extend(
                    (
                        "honeypot.session.file_download",
                        {**base, "shasum": sha, "url": f"http://drop/{sha[:12]}"},
                    )
                    for sha in shas
                )
            else:
                steps.append(("honeypot.session.file_download", dict(base)))
        else:
            steps.extend(
                ("honeypot.session.file_created", {**base, "shasum": sha})
                for sha in shas
            )
        steps.append(("honeypot.session.closed", {**base, "duration": durations[i]}))
        span = max(float(durations[i]), 0.0)
        denom = len(steps)
        for j, (kind, data) in enumerate(steps):
            yield {
                "seq": seq,
                "wall": 0.0,
                "kind": kind,
                "trace_id": session,
                "ts": start + span * j / denom,
                "data": data,
            }
            seq += 1


def replay_store_events(store: SessionStore) -> List[Dict[str, Any]]:
    """Materialised :func:`iter_session_events` (testing/benchmark helper)."""
    return list(iter_session_events(store))
