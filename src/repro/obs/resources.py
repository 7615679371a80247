"""Cross-process resource telemetry: per-task samplers, worker heartbeats.

The paper's honeyfarm ran unattended for fifteen months; what made its
dataset defensible was the operators' ability to account, per collection
window, for what each machine did and which were healthy while it ran.
This module is the in-process half of that story, stdlib-only:

* :class:`ResourceSampler` — a context manager each scheduler worker
  wraps around one :class:`~repro.sched.backends.ShardTask`: CPU time
  (``resource.getrusage`` deltas), peak RSS, GC collections and the
  wall time spent inside them (``gc.callbacks``), and optionally
  ``tracemalloc`` peaks.  The resulting dict rides home on
  :class:`~repro.sched.backends.TaskOutcome.telemetry` and lands in the
  run ledger (:mod:`repro.obs.ledger`) and the ``resource.*``
  histograms.
* :func:`worker_heartbeat` — the periodic liveness payload a worker
  ships through its existing result pipe (a pool queue message) so the
  scheduler can surface a stuck worker *before* the stall
  guard fires, and ``python -m repro top`` can draw per-worker rows.

Everything here reads physical clocks and kernel accounting, which is
exactly why the ledger and the trace-invariance tests declare these
fields volatile: telemetry describes the run, never the output.
"""

from __future__ import annotations

import gc
import os
import sys
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Stopwatch

try:  # pragma: no cover - absent only on niche platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

#: Schema version stamped into every telemetry dict.
TELEMETRY_VERSION = 1

#: Fields a completed sampler reports (plus ``tracemalloc_peak_kb`` when
#: tracemalloc sampling was requested).  All are per-task deltas except
#: ``max_rss_kb``, a process-lifetime high-water mark (``ru_maxrss`` does
#: not reset between tasks — a ceiling, not an exact per-task figure).
TELEMETRY_FIELDS = (
    "wall_seconds",
    "cpu_user_seconds",
    "cpu_system_seconds",
    "cpu_seconds",
    "max_rss_kb",
    "gc_collections",
    "gc_pause_seconds",
)

#: Keys of a :func:`worker_heartbeat` payload.  ``beat`` is a per-worker
#: monotonic counter — receivers dedupe on it, so a repeated payload
#: never double-counts.
HEARTBEAT_FIELDS = (
    "worker",
    "beat",
    "state",
    "last_index",
    "tasks_done",
    "sessions_done",
    "rss_kb",
)


def _page_size() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return 4096


def peak_rss_kb() -> int:
    """Process-lifetime peak resident set size in KiB (0 when unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalised here.
    """
    if _resource is None:  # pragma: no cover
        return 0
    peak = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - linux container
        peak //= 1024
    return max(0, peak)


def current_rss_kb() -> int:
    """Resident set size right now, in KiB.

    Reads ``/proc/self/statm`` where available (Linux); elsewhere falls
    back to the lifetime peak, which is the best stdlib answer without a
    platform-specific dependency.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            rss_pages = int(fh.read().split()[1])
        return rss_pages * _page_size() // 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-linux
        return peak_rss_kb()


class ResourceSampler:
    """CPU / RSS / GC accounting around one unit of work.

    Use as a context manager::

        with ResourceSampler() as sampler:
            store, metrics, events = _emit_task(...)
        outcome.telemetry = sampler.to_dict()

    GC pauses are measured by registering a ``gc.callbacks`` hook for the
    sampler's lifetime: the "start" phase opens a stopwatch, "stop"
    closes it and accumulates.  Samplers nest safely (each hook only
    accounts its own window) and the hook is always removed on exit.

    ``trace_malloc=True`` additionally runs :mod:`tracemalloc` across the
    window and reports the traced peak — allocation-exact but expensive,
    so it is opt-in and never on the default task path.
    """

    def __init__(self, trace_malloc: bool = False) -> None:
        self.trace_malloc = bool(trace_malloc)
        self.gc_collections = 0
        self.gc_pause_seconds = 0.0
        self._watch: Optional[Stopwatch] = None
        self._gc_watch: Optional[Stopwatch] = None
        self._ru0: Any = None
        self._ru1: Any = None
        self._tracemalloc_peak_kb: Optional[int] = None
        self._started_tracemalloc = False

    # -- gc hook ---------------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_watch = Stopwatch()
        elif phase == "stop" and self._gc_watch is not None:
            self.gc_collections += 1
            self.gc_pause_seconds += self._gc_watch.elapsed()
            self._gc_watch = None

    # -- context ---------------------------------------------------------------

    def __enter__(self) -> "ResourceSampler":
        self._watch = Stopwatch()
        if _resource is not None:
            self._ru0 = _resource.getrusage(_resource.RUSAGE_SELF)
        gc.callbacks.append(self._on_gc)
        if self.trace_malloc:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        return self

    def __exit__(self, *exc: Any) -> None:
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - someone cleared the list
            pass
        if _resource is not None:
            self._ru1 = _resource.getrusage(_resource.RUSAGE_SELF)
        if self.trace_malloc:
            import tracemalloc

            if tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                self._tracemalloc_peak_kb = int(peak) // 1024
                if self._started_tracemalloc:
                    tracemalloc.stop()

    # -- results ---------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        return self._watch.elapsed() if self._watch is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The telemetry payload (:data:`TELEMETRY_FIELDS`), JSON-ready."""
        user = system = 0.0
        if self._ru0 is not None and self._ru1 is not None:
            user = max(0.0, self._ru1.ru_utime - self._ru0.ru_utime)
            system = max(0.0, self._ru1.ru_stime - self._ru0.ru_stime)
        out: Dict[str, Any] = {
            "telemetry_version": TELEMETRY_VERSION,
            "wall_seconds": self.wall_seconds,
            "cpu_user_seconds": user,
            "cpu_system_seconds": system,
            "cpu_seconds": user + system,
            "max_rss_kb": peak_rss_kb(),
            "gc_collections": self.gc_collections,
            "gc_pause_seconds": self.gc_pause_seconds,
        }
        if self._tracemalloc_peak_kb is not None:
            out["tracemalloc_peak_kb"] = self._tracemalloc_peak_kb
        return out


def worker_heartbeat(
    worker: str,
    beat: int,
    state: str = "run",
    last_index: Optional[int] = None,
    tasks_done: int = 0,
    sessions_done: int = 0,
) -> Dict[str, Any]:
    """One heartbeat payload (:data:`HEARTBEAT_FIELDS`) for ``worker``.

    ``sessions_done`` is cumulative, so a dashboard can derive a
    sessions/s rate from two consecutive beats without any event other
    than the heartbeat itself.
    """
    return {
        "worker": str(worker),
        "beat": int(beat),
        "state": str(state),
        "last_index": last_index,
        "tasks_done": int(tasks_done),
        "sessions_done": int(sessions_done),
        "rss_kb": current_rss_kb(),
    }


def validate_heartbeat(payload: Dict[str, Any]) -> List[str]:
    """Check one heartbeat payload; returns problem strings (empty = ok)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["heartbeat is not an object"]
    for field in HEARTBEAT_FIELDS:
        if field not in payload:
            problems.append(f"heartbeat missing field {field!r}")
    if not isinstance(payload.get("worker"), str):
        problems.append("heartbeat field 'worker' not a string")
    for field in ("beat", "tasks_done", "sessions_done", "rss_kb"):
        value = payload.get(field)
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"heartbeat field {field!r} not an int")
    return problems


__all__ = [
    "HEARTBEAT_FIELDS",
    "TELEMETRY_FIELDS",
    "TELEMETRY_VERSION",
    "ResourceSampler",
    "current_rss_kb",
    "peak_rss_kb",
    "validate_heartbeat",
    "worker_heartbeat",
]
