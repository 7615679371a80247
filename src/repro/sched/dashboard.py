"""``repro top``: the scheduler-side terminal dashboard.

Where ``repro monitor`` watches *farm health* (pots, sessions, drift),
``top`` watches the *run itself*: per-worker heartbeat rows (state,
current shard, throughput, RSS), stage progress against the task count,
and the recent operational alert tail.  It consumes exactly the stream
``repro monitor`` tails — flight-recorder JSONL events — so a recorded
``--trace`` file replays in CI (``--once``) and a live sink can be
followed while a scheduled generate runs.

The dashboard is a pure fold over event dicts (:meth:`TopDashboard.feed`)
plus a renderer; nothing here touches the scheduler, so it can run in a
different process, on a different machine, or after the fact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

#: How many recent alerts (retries, stale workers) the frame keeps.
_ALERT_TAIL = 8

#: Minimum wall-clock span (seconds) a sessions/s rate is derived over.
#: Batched result drains deliver several beats within microseconds of
#: each other; a rate across such a sliver is display noise.
_RATE_WINDOW = 0.05


@dataclass
class WorkerRow:
    """Latest known state of one worker, derived from its heartbeats."""

    worker: str
    state: str = "?"
    beat: int = 0
    last_index: Optional[int] = None
    tasks_done: int = 0
    sessions_done: int = 0
    rss_kb: int = 0
    last_wall: Optional[float] = None
    #: sessions/s over at least ``_RATE_WINDOW`` of wall clock between
    #: beats (None until two sufficiently spaced beats arrive).
    rate: Optional[float] = None
    _anchor_wall: Optional[float] = None
    _anchor_sessions: int = 0

    def update(self, data: Dict[str, Any],
               wall: Optional[float]) -> None:
        beat = int(data.get("beat", 0))
        if beat <= self.beat and self.beat:
            return  # replayed heartbeat
        self.beat = beat
        self.state = str(data.get("state", self.state))
        self.last_index = data.get("last_index", self.last_index)
        self.tasks_done = int(data.get("tasks_done", self.tasks_done))
        self.sessions_done = int(data.get("sessions_done",
                                          self.sessions_done))
        self.rss_kb = int(data.get("rss_kb", self.rss_kb))
        self.last_wall = wall
        if wall is None:
            return
        if self._anchor_wall is None:
            self._anchor_wall = wall
            self._anchor_sessions = self.sessions_done
        elif wall - self._anchor_wall >= _RATE_WINDOW:
            self.rate = max(
                0.0, (self.sessions_done - self._anchor_sessions)
                / (wall - self._anchor_wall)
            )
            self._anchor_wall = wall
            self._anchor_sessions = self.sessions_done


@dataclass
class TopDashboard:
    """Folds flight-recorder events into the ``top`` view.

    Feed it any event stream containing ``sched.*`` kinds; unknown kinds
    are counted and ignored, so a full generation trace (honeypot
    events and all) renders fine.
    """

    workers: Dict[str, WorkerRow] = field(default_factory=dict)
    total_tasks: Optional[int] = None
    tasks_done: int = 0
    sessions: int = 0
    retries: int = 0
    stale_episodes: int = 0
    merged_sessions: Optional[int] = None
    events_seen: int = 0
    alerts: Deque[str] = field(
        default_factory=lambda: deque(maxlen=_ALERT_TAIL)
    )

    # -- folding ---------------------------------------------------------------

    def feed(self, event: Dict[str, Any]) -> None:
        """Fold one flight-recorder event dict into the view."""
        self.events_seen += 1
        kind = str(event.get("kind", ""))
        data = event.get("data") or {}
        if kind == "sched.trace.built":
            self.total_tasks = data.get("tasks")
        elif kind == "sched.task.done":
            self.tasks_done += 1
            self.sessions += int(data.get("sessions", 0))
        elif kind == "sched.task.retry":
            self.retries += 1
            self.alerts.append(
                f"RETRY      task {data.get('index')} -> attempt "
                f"{data.get('attempt')}: {data.get('error', '?')}"
            )
        elif kind == "sched.heartbeat.worker":
            worker = str(data.get("worker", "?"))
            row = self.workers.get(worker)
            if row is None:
                row = self.workers[worker] = WorkerRow(worker=worker)
            row.update(data, event.get("wall"))
        elif kind == "sched.heartbeat.stale":
            self.stale_episodes += 1
            worker = str(data.get("worker", "?"))
            if worker in self.workers:
                self.workers[worker].state = "STALE"
            self.alerts.append(
                f"STALE      worker {worker} silent "
                f"{data.get('silent_seconds', '?')}s "
                f"(last task {data.get('last_index')})"
            )
        elif kind == "generate.merged":
            self.merged_sessions = data.get("sessions")

    def feed_all(self, events) -> None:
        for event in events:
            self.feed(event)

    # -- rendering -------------------------------------------------------------

    def render(self, width: int = 34) -> str:
        """The dashboard frame as plain text (one terminal screen)."""
        lines = [self._progress_line(width), ""]
        lines.extend(self._worker_table())
        lines.append("")
        lines.append("-- recent alerts --")
        if self.alerts:
            lines.extend(f"  {alert}" for alert in self.alerts)
        else:
            lines.append("  (none)")
        return "\n".join(lines)

    def _progress_line(self, width: int) -> str:
        done = self.tasks_done
        total = self.total_tasks
        if total:
            filled = int(width * min(done / total, 1.0))
            bar = "#" * filled + "." * (width - filled)
            progress = f"[{bar}] {done}/{total} ({done / total:4.0%})"
        else:
            progress = f"{done} task(s) done"
        extras = [f"sessions {self.sessions:,}"]
        if self.merged_sessions is not None:
            extras.append(f"merged {self.merged_sessions:,}")
        if self.retries:
            extras.append(f"retries {self.retries}")
        if self.stale_episodes:
            extras.append(f"stale {self.stale_episodes}")
        return ("== repro top — scheduler dashboard ==\n"
                f"tasks {progress} · " + " · ".join(extras))

    def _worker_table(self) -> List[str]:
        header = (f"{'worker':<14} {'state':<6} {'beat':>5} "
                  f"{'last task':>9} {'done':>5} {'sess/s':>8} "
                  f"{'rss':>9}")
        if not self.workers:
            return [header, "  (no worker heartbeats yet)"]
        rows = [header]
        for worker in sorted(self.workers):
            row = self.workers[worker]
            last = "-" if row.last_index is None else str(row.last_index)
            rate = "-" if row.rate is None else f"{row.rate:,.0f}"
            rss = (f"{row.rss_kb / 1024:.1f} MB" if row.rss_kb else "-")
            rows.append(
                f"{row.worker:<14} {row.state:<6} {row.beat:>5} "
                f"{last:>9} {row.tasks_done:>5} {rate:>8} {rss:>9}"
            )
        return rows


__all__ = ["TopDashboard", "WorkerRow"]
