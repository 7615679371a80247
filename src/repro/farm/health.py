"""Live farm health: liveness, drift baselines, and fresh-hash alerts.

The paper's honeyfarm was an *operated* system — GCA staff watched 221
Cowrie pots for liveness and ran a notification pipeline keyed on freshly
observed file hashes.  This module is that operational layer for the
reproduction: a :class:`FarmHealthMonitor` consumes the live event stream
(honeypot event sink, or flight-recorder events fed from a tailed JSONL
trace) and maintains

* **per-honeypot liveness** — a pot silent longer than the timeout raises
  a ``liveness-down`` alert (and ``liveness-recovered`` when it returns);
* **session-rate drift** — per-interval farm session counts tracked with
  an EWMA mean/variance baseline; intervals whose z-score exceeds the
  threshold raise ``rate-drift`` alerts;
* **category-mix drift** — the per-interval share of each session category
  against its own EWMA baseline, z-scored the same way;
* **fresh-hash alerts** — a never-before-seen file hash raises a
  ``fresh-hash`` alert and renders the paper's notification artefact
  (:class:`repro.core.notify.FreshHashNotice`).

Interval statistics land in the metrics registry through *capped*
histograms (:meth:`Metrics.histogram` with a reservoir cap), so a
monitor attached to a million-session run holds bounded memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.notify import FreshHashNotice
from repro.honeypot.events import (
    CATEGORY_NAMES,
    SESSION_STEPS,
    HoneypotEvent,
    OpenSession,
    block_category,
    session_category,
)
from repro.obs import get_ledger, get_metrics

#: Session categories the mix-drift baseline tracks (the paper's taxonomy).
CATEGORIES = CATEGORY_NAMES

#: A rate baseline below this is as good as zero: it is under half an ulp
#: of 0.3, so the next busy interval updates it exactly as it would a zero
#: baseline, and until then its variance is far below the z-score floor.
_NEGLIGIBLE = 1e-17

_FILE_KINDS = frozenset({"honeypot.session.file_download",
                         "honeypot.session.file_created",
                         "honeypot.session.file_modified"})


@dataclass
class HealthConfig:
    """Knobs of the monitor (defaults suit the live/demo time scale)."""

    #: Seconds a watched pot may stay silent before it counts as down.
    liveness_timeout: float = 900.0
    #: Width of one rate/mix statistics interval (simulation seconds).
    interval: float = 60.0
    #: EWMA smoothing factor for the drift baselines.
    ewma_alpha: float = 0.3
    #: |z| beyond which an interval raises a drift alert.
    z_threshold: float = 3.0
    #: Intervals observed before drift alerts may fire (baseline warm-up).
    warmup_intervals: int = 5
    #: Reservoir cap for the interval histograms kept in the registry.
    histogram_cap: int = 4096
    #: Keep at most this many alerts (oldest dropped first).
    max_alerts: int = 1000

    def __post_init__(self) -> None:
        # interval <= 0 never closes, so _advance_to would spin forever.
        for name in ("liveness_timeout", "interval"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class Alert:
    """One operational alert raised by the monitor."""

    kind: str  # fresh-hash | liveness-down | liveness-recovered | rate-drift | mix-drift
    time: float
    honeypot_id: Optional[str]
    message: str
    data: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        where = f" {self.honeypot_id}" if self.honeypot_id else ""
        return f"[t={self.time:9.1f}s] {self.kind.upper():<18}{where} {self.message}"


@dataclass
class PotHealth:
    """Running per-honeypot state."""

    honeypot_id: str
    sessions: int = 0
    live: int = 0
    commands: int = 0
    hashes: int = 0
    logins: int = 0
    last_seen: float = float("-inf")
    up: bool = True

    def status(self, now: float, timeout: float) -> str:
        if not self.up:
            return "DOWN"
        if self.last_seen == float("-inf"):
            return "SILENT"
        if now - self.last_seen > timeout / 2:
            return "QUIET"
        return "OK"


class _Ewma:
    """EWMA mean/variance with z-scoring (exponentially weighted moments)."""

    __slots__ = ("alpha", "mean", "var", "n")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def zscore(self, x: float, var_floor: float = 0.0) -> Optional[float]:
        """z of ``x`` against the current baseline (None while undefined).

        ``var_floor`` bounds the variance from below: share baselines use
        it so a category that was *never* seen (zero mean, zero variance)
        still alarms loudly when it suddenly appears.
        """
        if self.n == 0:
            return None
        var = max(self.var, var_floor)
        if var <= 1e-12:
            return None
        return (x - self.mean) / math.sqrt(var)

    def update(self, x: float) -> None:
        if self.n == 0:
            self.mean = x
        else:
            delta = x - self.mean
            self.mean += self.alpha * delta
            self.var = (1 - self.alpha) * (self.var + self.alpha * delta * delta)
        self.n += 1


def _quiet_steps(start: float, step: float, now: float, oldest: float,
                 timeout: float) -> int:
    """How often ``start += step`` may repeat with the sum at or before
    ``now`` and within ``timeout`` of ``oldest``.

    Counted only where the additions are exact, on integral floats below
    2**53 (the k-th sum is then ``start + k * step``); elsewhere 0.
    """
    if not (float(start).is_integer() and float(step).is_integer()
            and abs(start) + abs(now) + 2 * step < 2 ** 53):
        return 0
    lo, hi = 0, int((now - start) // step) + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        end = start + mid * step
        lo, hi = (mid, hi) if end <= now and end - oldest <= timeout \
            else (lo, mid)
    return lo


class FarmHealthMonitor:
    """Consumes the live event stream and maintains farm health state.

    Feed it either :class:`HoneypotEvent` objects (attach :meth:`on_event`
    as a honeypot/farm event sink) or flight-recorder event dicts
    (:meth:`feed`, e.g. from a tailed ``--trace`` JSONL).  Time advances
    with the events' simulation stamps; call :meth:`advance` explicitly to
    run liveness checks past the last event.
    """

    def __init__(
        self,
        config: Optional[HealthConfig] = None,
        known_hashes: Optional[Iterable[str]] = None,
        intel=None,
    ):
        self.config = config or HealthConfig()
        self.intel = intel
        self.pots: Dict[str, PotHealth] = {}
        self.alerts: List[Alert] = []
        self.notices: List[FreshHashNotice] = []
        self.known_hashes = set(known_hashes or ())
        self.now = float("-inf")
        self.events_seen = 0
        self.sessions_seen = 0
        self._sessions: Dict[str, OpenSession] = {}
        self._t0: Optional[float] = None  # first stamped event (liveness ref)
        self._interval_start: Optional[float] = None
        self._interval_sessions = 0
        self._interval_mix = {cat: 0 for cat in CATEGORIES}
        self._rate = _Ewma(self.config.ewma_alpha)
        self._mix = {cat: _Ewma(self.config.ewma_alpha) for cat in CATEGORIES}
        self._intervals_closed = 0

    # -- wiring ---------------------------------------------------------------

    def watch(self, honeypot_ids: Iterable[str]) -> None:
        """Register pots up front, so never-seen pots still go DOWN."""
        for pot_id in honeypot_ids:
            self.pots.setdefault(pot_id, PotHealth(pot_id))

    def _pot(self, honeypot_id: str) -> PotHealth:
        pot = self.pots.get(honeypot_id)
        if pot is None:
            pot = self.pots[honeypot_id] = PotHealth(honeypot_id)
        return pot

    # -- event intake ---------------------------------------------------------

    def on_event(self, event: HoneypotEvent) -> None:
        """Honeypot event-sink entry (the live farm wiring)."""
        self._consume(event.event_type.value, event.timestamp,
                      event.honeypot_id, event.session_id, event.data)

    def feed(self, event: Dict[str, Any]) -> None:
        """One flight-recorder event dict (tailed JSONL or Tracer buffer)."""
        data = event.get("data") or {}
        kind = event.get("kind", "")
        ts = event.get("ts")
        if kind == "generator.block":
            self._consume_block(ts, data)
            return
        sensor = data.get("sensor", "")
        session = data.get("session", "")
        if ts is not None:
            self._consume(kind, float(ts), sensor, session, data)

    # -- consumption ----------------------------------------------------------

    def _consume(self, kind: str, ts: float, sensor: str,
                 session: str, data: Dict[str, Any]) -> None:
        self.events_seen += 1
        if sensor:
            pot = self._pot(sensor)
            pot.last_seen = max(pot.last_seen, ts)
            if not pot.up:
                pot.up = True
                self._alert("liveness-recovered", ts, sensor,
                            "reporting again")
        else:
            pot = None

        step = SESSION_STEPS.get(kind)
        if step is not None:
            step(self, ts, session, data)
        if kind == "honeypot.session.connect":
            self.sessions_seen += 1
            self._interval_sessions += 1
            if pot is not None:
                pot.sessions += 1
                pot.live += 1
        elif kind == "honeypot.session.closed":
            if pot is not None:
                pot.live = max(0, pot.live - 1)
        elif kind in _FILE_KINDS:
            sha = data.get("shasum")
            if sha:
                self._fresh_hash(sha, ts, sensor, session,
                                 uri=data.get("url", ""))
        elif pot is not None:
            if kind == "honeypot.login.success":
                pot.logins += 1
            elif kind == "honeypot.command.input":
                pot.commands += 1
        self._advance_to(ts)

    def _closed(self, record: OpenSession) -> None:
        """The lifecycle's close: the session joins the interval mix."""
        self._interval_mix[session_category(
            record.attempted, record.success, record.commands, record.uris)] += 1

    def _consume_block(self, ts: Optional[float], data: Dict[str, Any]) -> None:
        """A bulk-path block event: rate/mix counts without pot attribution."""
        self.events_seen += 1
        sessions = int(data.get("sessions", 0))
        self.sessions_seen += sessions
        self._interval_sessions += sessions
        category = block_category(data)
        if category is not None:
            self._interval_mix[category] += sessions
        if ts is not None:
            self._advance_to(float(ts))

    # -- hashes ---------------------------------------------------------------

    def _fresh_hash(self, sha: str, ts: float, sensor: str,
                    session: str, uri: str = "") -> None:
        pot = self.pots.get(sensor)
        if pot is not None:
            pot.hashes += 1
        if sha in self.known_hashes:
            return
        self.known_hashes.add(sha)
        record = self._sessions.get(session)
        tag = "unknown"
        if self.intel is not None:
            # The monitor accepts any duck-typed intel source; a missing
            # tag_of / value attribute or absent entry means "unknown",
            # anything else is a real bug and must surface.
            try:
                tag = self.intel.tag_of(sha).value
            except (AttributeError, KeyError):
                tag = "unknown"
        notice = FreshHashNotice(
            sha256=sha,
            first_seen=ts,
            honeypot_id=sensor,
            client_ip=(record.client_ip if record is not None else None) or 0,
            session_id=session,
            uri=uri,
            tag=tag,
        )
        self.notices.append(notice)
        self._alert("fresh-hash", ts, sensor,
                    f"sha256={sha[:16]}… first sighting farm-wide",
                    sha256=sha, uri=uri, tag=tag)

    # -- time / drift ---------------------------------------------------------

    def advance(self, now: float) -> None:
        """Advance the monitor clock: close intervals, check liveness."""
        self._advance_to(now)
        self._check_liveness(max(self.now, now))

    def _advance_to(self, now: float) -> None:
        if now <= self.now and self._interval_start is not None:
            return
        self.now = max(self.now, now)
        cfg = self.config
        if self._interval_start is None:
            # Anchor intervals (and the liveness reference for watched
            # pots that never report) at the first stamped event.
            self._interval_start = now
            self._t0 = now
            return
        # Liveness is re-checked at interval closes (and explicit advance()
        # calls), keeping the per-event cost O(1) rather than O(pots).
        while now >= self._interval_start + cfg.interval:
            if self._interval_sessions or any(self._interval_mix.values()):
                self._close_interval(self._interval_start + cfg.interval)
            else:
                self._close_empty(now)

    def _close_empty(self, now: float) -> None:
        """Close the run of empty intervals ending at or before ``now``,
        with the alerts and counts of one :meth:`_close_interval` each.

        An empty interval only decays the rate baseline; once that is
        negligible, only the clock moves (by exact float additions) until
        ``now`` or the next liveness deadline.  An interval whose z-score
        raises a drift alert closes the long way.
        """
        cfg, rate = self.config, self._rate
        step, timeout = cfg.interval, cfg.liveness_timeout
        start, zeros, oldest = self._interval_start, 0, self._oldest_up()
        hist = get_metrics().histogram("farm.sessions_per_interval",
                                       cap=cfg.histogram_cap)
        while now >= start + step:
            if rate.n and rate.mean < _NEGLIGIBLE and rate.var < _NEGLIGIBLE:
                quiet = _quiet_steps(start, step, now, oldest, timeout)
                start += quiet * step
                zeros, rate.n = zeros + quiet, rate.n + quiet
                self._intervals_closed += quiet
                if now < start + step:
                    break
            end = start + step
            z = rate.zscore(0.0)
            if (z is not None and abs(z) > cfg.z_threshold
                    and self._intervals_closed >= cfg.warmup_intervals):
                hist.observe_repeated(0.0, zeros)
                zeros, self._interval_start = 0, start
                self._close_interval(end)
                start, oldest = end, self._oldest_up()
                continue
            rate.update(0.0)
            zeros, start = zeros + 1, end
            self._intervals_closed += 1
            if end - oldest > timeout:
                self._check_liveness(end)
                oldest = self._oldest_up()
        hist.observe_repeated(0.0, zeros)
        self._interval_start = start

    def _oldest_up(self) -> float:
        """The earliest liveness reference of a pot still up (inf: none)."""
        return min((p.last_seen if p.last_seen != float("-inf") else self._t0
                    for p in self.pots.values() if p.up), default=math.inf)

    def _close_interval(self, end: float) -> None:
        cfg = self.config
        x = float(self._interval_sessions)
        metrics = get_metrics()
        metrics.histogram("farm.sessions_per_interval",
                          cap=cfg.histogram_cap).observe(x)
        warm = self._intervals_closed >= cfg.warmup_intervals
        z = self._rate.zscore(x)
        if warm and z is not None and abs(z) > cfg.z_threshold:
            self._alert(
                "rate-drift", end, None,
                f"{int(x)} sessions/interval vs baseline "
                f"{self._rate.mean:.1f} (z={z:+.1f})",
                z=z, sessions=x, baseline=self._rate.mean,
            )
        self._rate.update(x)
        total = sum(self._interval_mix.values())
        if total > 0:
            for cat in CATEGORIES:
                share = self._interval_mix[cat] / total
                baseline = self._mix[cat]
                # Shares live in [0, 1]; the 1e-4 floor (a 1% std) keeps
                # a flat-zero baseline alarmable.
                z = baseline.zscore(share, var_floor=1e-4)
                if warm and z is not None and abs(z) > cfg.z_threshold:
                    self._alert(
                        "mix-drift", end, None,
                        f"{cat} share {share:.1%} vs baseline "
                        f"{baseline.mean:.1%} (z={z:+.1f})",
                        category=cat, z=z, share=share,
                        baseline=baseline.mean,
                    )
                baseline.update(share)
                metrics.histogram(f"farm.mix.{cat}",
                                  cap=cfg.histogram_cap).observe(share)
        self._interval_sessions = 0
        self._interval_mix = {cat: 0 for cat in CATEGORIES}
        self._interval_start = end
        self._intervals_closed += 1
        self._check_liveness(end)

    def _check_liveness(self, now: float) -> None:
        timeout = self.config.liveness_timeout
        for pot in self.pots.values():
            if not pot.up:
                continue
            # A watched pot that never reported counts from the first
            # event the monitor saw at all.
            reference = (pot.last_seen if pot.last_seen != float("-inf")
                         else self._t0)
            if reference is not None and now - reference > timeout:
                pot.up = False
                self._alert(
                    "liveness-down", now, pot.honeypot_id,
                    f"silent for {now - reference:.0f}s "
                    f"(> {timeout:.0f}s)",
                    silent_for=now - reference,
                )

    def _alert(self, kind: str, ts: float, honeypot_id: Optional[str],
               message: str, **data: Any) -> None:
        self.alerts.append(Alert(kind, ts, honeypot_id, message, data))
        if len(self.alerts) > self.config.max_alerts:
            del self.alerts[: len(self.alerts) - self.config.max_alerts]
        get_metrics().inc(f"farm.alerts.{kind}")
        ledger = get_ledger()
        if ledger is not None:
            ledger.record_alert(kind, message, time=ts,
                                honeypot_id=honeypot_id, **data)

    # -- reporting ------------------------------------------------------------

    def render_table(self, max_pots: int = 30, tail_alerts: int = 12) -> str:
        """The operator's per-pot health table plus the recent alert tail."""
        cfg = self.config
        now = self.now if self.now != float("-inf") else 0.0
        lines = [
            f"== farm health @ t={now:.1f}s — "
            f"{len(self.pots)} pots, {self.sessions_seen:,} sessions, "
            f"{len(self.notices)} fresh hashes, "
            f"{len(self.alerts)} alerts ==",
            f"{'honeypot':<14} {'st':<6} {'sess':>6} {'live':>5} "
            f"{'cmds':>6} {'hashes':>6} {'last seen':>12}",
        ]
        pots = sorted(self.pots.values(), key=lambda p: p.honeypot_id)
        hidden = 0
        if len(pots) > max_pots:
            # Keep the interesting rows: anything not plain OK, then busiest.
            flagged = [p for p in pots
                       if p.status(now, cfg.liveness_timeout) != "OK"]
            busiest = sorted(pots, key=lambda p: -p.sessions)
            keep = {p.honeypot_id for p in flagged}
            for p in busiest:
                if len(keep) >= max_pots:
                    break
                keep.add(p.honeypot_id)
            hidden = len(pots) - len(keep)
            pots = [p for p in pots if p.honeypot_id in keep]
        for pot in pots:
            seen = ("never" if pot.last_seen == float("-inf")
                    else f"{now - pot.last_seen:.0f}s ago")
            lines.append(
                f"{pot.honeypot_id:<14} "
                f"{pot.status(now, cfg.liveness_timeout):<6} "
                f"{pot.sessions:>6} {pot.live:>5} {pot.commands:>6} "
                f"{pot.hashes:>6} {seen:>12}"
            )
        if hidden:
            lines.append(f"... and {hidden} more pots")
        if self.alerts:
            lines.append("-- alerts (most recent last) --")
            for alert in self.alerts[-tail_alerts:]:
                lines.append(alert.render())
        return "\n".join(lines)
