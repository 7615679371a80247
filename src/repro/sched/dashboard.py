"""``repro top``: the scheduler-side terminal dashboard.

Where ``repro monitor`` watches *farm health* (pots, sessions, drift),
``top`` watches the *run itself*: per-worker heartbeat rows (state,
current shard, throughput, RSS), stage progress against the task count,
and the recent operational alert tail.  It consumes exactly the stream
``repro monitor`` tails — flight-recorder JSONL events — so a recorded
``--trace`` file replays in CI (``--once``) and a live sink can be
followed while a scheduled generate runs.

The events are folded by the run ledger's fold
(:class:`repro.obs.ledger.SchedFold`), the same one that writes a
``--ledger`` file; this module only renders it.  Nothing here touches
the scheduler, so it can run in a different process, on a different
machine, or after the fact.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.ledger import SchedFold


def render_top(fold: SchedFold, width: int = 34) -> str:
    """The dashboard frame as plain text (one terminal screen)."""
    lines = [_progress_line(fold, width), ""]
    lines.extend(_worker_table(fold))
    lines.append("")
    lines.append("-- recent alerts --")
    if fold.tail:
        lines.extend(f"  {_alert_line(event)}" for event in fold.tail)
    else:
        lines.append("  (none)")
    return "\n".join(lines)


def _progress_line(fold: SchedFold, width: int) -> str:
    done = len(fold.tasks)
    total = None if fold.sched is None else fold.sched.get("tasks")
    if total:
        filled = int(width * min(done / total, 1.0))
        bar = "#" * filled + "." * (width - filled)
        progress = f"[{bar}] {done}/{total} ({done / total:4.0%})"
    else:
        progress = f"{done} task(s) done"
    sessions = sum(row.get("sessions", 0) for row in fold.tasks.values())
    extras = [f"sessions {sessions:,}"]
    if fold.merged_sessions is not None:
        extras.append(f"merged {fold.merged_sessions:,}")
    if fold.retries:
        extras.append(f"retries {fold.retries}")
    stale = sum(alert["kind"] == "stale-worker" for alert in fold.alerts)
    if stale:
        extras.append(f"stale {stale}")
    return ("== repro top — scheduler dashboard ==\n"
            f"tasks {progress} · " + " · ".join(extras))


def _worker_table(fold: SchedFold) -> List[str]:
    header = (f"{'worker':<14} {'state':<6} {'beat':>5} "
              f"{'last task':>9} {'done':>5} {'sess/s':>8} "
              f"{'rss':>9}")
    if not fold.workers:
        return [header, "  (no worker heartbeats yet)"]
    rows = [header]
    for worker in sorted(fold.workers):
        row = fold.workers[worker]
        last = row.get("last_index")
        last = "-" if last is None else str(last)
        rate = "-" if row["rate"] is None else f"{row['rate']:,.0f}"
        rss = row.get("rss_kb", 0)
        rss = f"{rss / 1024:.1f} MB" if rss else "-"
        rows.append(
            f"{worker:<14} {row.get('state', '?'):<6} {row['beat']:>5} "
            f"{last:>9} {row.get('tasks_done', 0):>5} {rate:>8} {rss:>9}"
        )
    return rows


def _alert_line(event: Dict[str, Any]) -> str:
    data = event.get("data") or {}
    if event.get("kind") == "sched.task.retry":
        return (f"RETRY      task {data.get('index')} -> attempt "
                f"{data.get('attempt')}: {data.get('error', '?')}")
    return (f"STALE      worker {data.get('worker', '?')} silent "
            f"{data.get('silent_seconds', '?')}s "
            f"(last task {data.get('last_index')})")


__all__ = ["render_top"]
