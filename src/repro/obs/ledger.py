"""The run ledger: a versioned, append-only JSONL manifest of one run.

Fifteen unattended months only produce a defensible dataset if every
collection window leaves a durable record of what ran, where, under
which configuration, at what cost — the paper's operators could answer
those questions after the fact, and so can this pipeline.  A ledger file
is one JSON object per line, in canonical record order::

    {"record": "ledger", "version": 1, ...}        # header, always first
    {"record": "run", "kind": "generate", ...}     # config fingerprint
    {"record": "env", "python": "3.11.x", ...}     # environment snapshot
    {"record": "sched", "tasks": 52, ...}          # scheduler context
    {"record": "stage", "path": "generate", ...}   # span rollups (sorted)
    {"record": "task", "index": 0, ...}            # one row per ShardTask
    {"record": "heartbeat", ...}                   # worker liveness trail
    {"record": "alert", ...}                       # operational alerts
    {"record": "artifact", "sha256": ...}          # written files
    {"record": "final", "store_sha256": ...}       # always last

Every layer states each fact once, as a flight-recorder event
(:func:`repro.obs.trace.emit`): the scheduler its ``sched.*`` events,
:func:`repro.api.generate` the run's identity and store (``run.begin``,
``run.store``), the CLI the files it wrote (``run.artifact``) and the
farm-health monitor its alerts (``farm.alert``).  :class:`SchedFold`
folds them through one step table (:data:`STEPS`) into the ``run``,
``sched``, ``task``, ``heartbeat``, ``alert`` and ``artifact`` records
and the final store digest.  A ledger is one more listener on the
trace seam (``use_fold(ledger.fold.feed)``), so it hears every event,
traced or not.  ``repro top`` renders :class:`TopFold`, the part of the
same fold that keeps no per-heartbeat record and one int per task.
Task rows are keyed by index (a retry overwrites its earlier row) and
written in index order, stages sort by path — so a workers=1 and a
workers=2 ledger of one config are *identical* modulo what varies from
run to run, declared once per event kind
(:data:`repro.obs.trace.VOLATILE_BY_KIND`, which a folded record reaches
through :data:`RECORD_EVENT_KIND`) and, for the ledger's own records,
in :data:`VOLATILE_FIELDS`.
:func:`strip_volatile_records` applies both; :func:`validate_ledger`
checks the schema.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.obs.export import write_trace_jsonl
from repro.obs.metrics import get_metrics
from repro.obs.trace import VOLATILE_BY_KIND, WHOLE_EVENT, field_problems

#: Ledger schema version (the header record pins it).
LEDGER_VERSION = 1

#: Every record type, in canonical file order.
RECORD_TYPES = (
    "ledger",
    "run",
    "env",
    "sched",
    "stage",
    "task",
    "heartbeat",
    "alert",
    "artifact",
    "final",
)

#: The event kind each folded record is made from, and so takes its
#: run-variance from (:data:`~repro.obs.trace.VOLATILE_BY_KIND`): by
#: record type, except that an alert named by its ``kind`` here is made
#: from that event (a stale-worker alert varies with its heartbeat).
RECORD_EVENT_KIND: Dict[str, str] = {
    "run": "run.begin",
    "sched": "sched.trace.built",
    "task": "sched.task.done",
    "heartbeat": "sched.heartbeat.worker",
    "alert": "farm.alert",
    "stale-worker": "sched.heartbeat.stale",
    "artifact": "run.artifact",
}

#: Fields of the ledger's own records that legitimately vary between two
#: runs of the same config (physical timings, process identity).  What
#: remains after stripping is the run's *logical* identity and must be
#: byte-identical across backends and worker counts.
VOLATILE_FIELDS: Dict[str, frozenset] = {
    "ledger": frozenset({"created_wall"}),
    "env": frozenset({"pid", "cwd", "argv", "hostname"}),
    "stage": frozenset({"wall", "cpu"}),
    "final": frozenset({"wall_seconds", "alerts", "heartbeats",
                        "cache_hit"}),
}

#: Required fields (and their types) per record type, for validation.
_REQUIRED: Dict[str, Dict[str, tuple]] = {
    "ledger": {"version": (int,)},
    "run": {"kind": (str,)},
    "env": {"python": (str,)},
    "sched": {"tasks": (int,)},
    "stage": {"path": (str,), "count": (int,)},
    "task": {"index": (int,), "kind": (str,), "key": (str,),
             "sessions": (int,)},
    "heartbeat": {"worker": (str,), "beat": (int,)},
    "alert": {"kind": (str,), "message": (str,)},
    "artifact": {"name": (str,), "sha256": (str,)},
    "final": {"status": (str,)},
}

_RANK = {rtype: i for i, rtype in enumerate(RECORD_TYPES)}

#: How many recent retry / stale-worker events ``repro top`` keeps.
ALERT_TAIL = 8

#: Minimum wall-clock span (seconds) a sessions/s rate is derived over.
#: Batched result drains deliver several beats within microseconds of
#: each other; a rate across such a sliver is display noise.
RATE_WINDOW = 0.05


# -- the one fold --------------------------------------------------------------


class TopFold:
    """What ``repro top`` renders of one run's scheduler events.

    Bounded by the workers, not by the run: the task total, one session
    count per task index (a retry overwrites it), each worker's latest
    beat fields with its sessions/s ``rate`` and the ``anchor`` (wall,
    sessions) the rate runs from, the retry and stale-worker counts, the
    recent retry/stale tail and the merged session count.
    """

    def __init__(self) -> None:
        self.total_tasks: Optional[int] = None
        self.task_sessions: Dict[Any, int] = {}
        self.workers: Dict[str, Dict[str, Any]] = {}
        self.retries = 0
        self.stale = 0
        self.tail: Deque[Dict[str, Any]] = deque(maxlen=ALERT_TAIL)
        self.merged_sessions: Optional[int] = None

    def feed(self, event: Dict[str, Any]) -> None:
        """Fold one flight-recorder event dict."""
        step = STEPS.get(event.get("kind"))
        if step is not None:
            getattr(self, step)(event, event.get("data") or {})

    def _built(self, event: Dict, data: Dict) -> None:
        self.total_tasks = data.get("tasks")

    def _done(self, event: Dict, data: Dict) -> None:
        self.task_sessions[data.get("index")] = data.get("sessions", 0)

    def _retry(self, event: Dict, data: Dict) -> None:
        self.retries += 1
        self.tail.append(event)

    def _beat(self, event: Dict, data: Dict) -> None:
        worker = str(data.get("worker", "?"))
        row = self.workers.setdefault(worker, {"beat": 0, "rate": None,
                                               "anchor": None})
        if data.get("beat", 0) <= row["beat"] and row["beat"]:
            return  # replayed heartbeat
        row.update(data)  # a field the beat lacks keeps its last value
        wall, sessions = event.get("wall"), row.get("sessions_done", 0)
        if wall is None:
            return
        if row["anchor"] is None:
            row["anchor"] = (wall, sessions)
        elif wall - row["anchor"][0] >= RATE_WINDOW:
            row["rate"] = max(0.0, (sessions - row["anchor"][1])
                              / (wall - row["anchor"][0]))
            row["anchor"] = (wall, sessions)

    def _stale(self, event: Dict, data: Dict) -> None:
        self.stale += 1
        worker = str(data.get("worker", "?"))
        if worker in self.workers:
            self.workers[worker]["state"] = "STALE"
        self.tail.append(event)

    def _merged(self, event: Dict, data: Dict) -> None:
        self.merged_sessions = data.get("sessions")

    def _ledger_only(self, event: Dict, data: Dict) -> None:
        """The run, its store, artifacts and farm alerts: not shown."""

    _run = _store = _artifact = _alert = _ledger_only


class SchedFold(TopFold):
    """:class:`TopFold` plus the ledger's full records: the ``run``
    record, the ``sched`` record, task rows by index, the heartbeat
    trail, the alerts (stale-worker and farm, in arrival order), the
    artifacts and the store digest the ``final`` record carries."""

    def __init__(self) -> None:
        super().__init__()
        self.run: Optional[Dict[str, Any]] = None
        self.sched: Optional[Dict[str, Any]] = None
        self.tasks: Dict[int, Dict[str, Any]] = {}
        self.heartbeats: List[Dict[str, Any]] = []
        self.alerts: List[Dict[str, Any]] = []
        self.artifacts: List[Dict[str, Any]] = []
        self.store: Optional[Dict[str, Any]] = None

    def records(self) -> List[Dict[str, Any]]:
        """The ledger records this fold holds, in canonical order."""
        return ([] if self.run is None else [self.run]) \
            + ([] if self.sched is None else [self.sched]) \
            + [self.tasks[i] for i in sorted(self.tasks)] \
            + self.heartbeats + self.alerts + self.artifacts

    def _run(self, event: Dict, data: Dict) -> None:
        # First wins per field: the CLI names the command before
        # repro.api.generate fills in the config, fingerprint and
        # backend, so `repro report` keeps kind "report".
        if self.run is None:
            self.run = {"record": "run", "kind": str(data.get("command"))}
        for key, value in data.items():
            if key != "command":
                self.run.setdefault(key, value)

    def _store(self, event: Dict, data: Dict) -> None:
        self.store = dict(data)

    def _artifact(self, event: Dict, data: Dict) -> None:
        self.artifacts.append({"record": "artifact", **data})

    def _alert(self, event: Dict, data: Dict) -> None:
        record = {"record": "alert", "kind": data.get("alert"),
                  "message": data.get("message")}
        record.update((key, data[key]) for key in ("time", "honeypot_id")
                      if data.get(key) is not None)
        if data.get("data"):
            record["data"] = data["data"]
        self.alerts.append(record)

    def _built(self, event: Dict, data: Dict) -> None:
        super()._built(event, data)
        self.sched = dict(data, record="sched")

    def _done(self, event: Dict, data: Dict) -> None:
        super()._done(event, data)
        # Keyed by task index: a retry overwrites the earlier row.
        row = dict(data, record="task", kind=data.get("shard_kind"))
        row.pop("shard_kind", None)
        self.tasks[row.get("index")] = row

    def _beat(self, event: Dict, data: Dict) -> None:
        self.heartbeats.append(dict(data, record="heartbeat"))
        super()._beat(event, data)

    def _stale(self, event: Dict, data: Dict) -> None:
        worker = str(data.get("worker", "?"))
        silent = data.get("silent_seconds", 0.0)
        self.alerts.append({
            "record": "alert",
            "kind": "stale-worker",
            "message": f"worker {worker} silent for {silent:.1f}s "
                       f"(last task {data.get('last_index')})",
            "data": {"worker": worker, "silent_seconds": silent},
        })
        super()._stale(event, data)


#: Event kind -> the name of the fold's step method,
#: ``step(event, data)``.
STEPS: Dict[str, str] = {
    "run.begin": "_run",
    "sched.trace.built": "_built",
    "sched.task.done": "_done",
    "sched.task.retry": "_retry",
    "sched.heartbeat.worker": "_beat",
    "sched.heartbeat.stale": "_stale",
    "farm.alert": "_alert",
    "generate.merged": "_merged",
    "run.store": "_store",
    "run.artifact": "_artifact",
}


def sha256_file(path) -> str:
    """sha256 hex digest of a file's bytes (artifact fingerprinting)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment_snapshot() -> Dict[str, Any]:
    return {
        "record": "env",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": _numpy_version(),
        "pid": os.getpid(),
        "cwd": os.getcwd(),
        "hostname": platform.node(),
    }


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a core dependency
        return None
    return numpy.__version__


class RunLedger:
    """Accumulates one run's manifest; writes it in canonical order.

    The run's events reach :attr:`fold` while it listens on the trace
    seam (``use_fold(ledger.fold.feed)``); :meth:`record_stages` adds the
    span rollups and :meth:`finish` the final record; :meth:`write_jsonl`
    assembles and persists the file.  Assembly, not arrival, defines the
    order — which is what makes the output worker-count-invariant modulo
    declared-volatile fields.
    """

    def __init__(self) -> None:
        self.fold = SchedFold()
        self._stages: List[Dict[str, Any]] = []
        self._final: Optional[Dict[str, Any]] = None
        self._created_wall = time.time()
        self._start = time.perf_counter()

    def record_stages(self, metrics) -> None:
        """Span rollups from a metrics registry, sorted by span path."""
        self._stages = [
            {
                "record": "stage",
                "path": path,
                "count": int(cell["count"]),
                "wall": float(cell["wall"]),
                "cpu": float(cell["cpu"]),
            }
            for path, cell in sorted(metrics.spans.items())
        ]

    def finish(self, status: str = "ok") -> None:
        """Close the ledger with the final summary record."""
        fold = self.fold
        self._final = {
            "record": "final",
            "status": str(status),
            "tasks": len(fold.tasks),
            "alerts": len(fold.alerts),
            "heartbeats": len(fold.heartbeats),
            "wall_seconds": time.perf_counter() - self._start,
        }
        get_metrics().inc("ledger.tasks", len(fold.tasks))
        get_metrics().inc("ledger.alerts", len(fold.alerts))
        if fold.store:
            self._final.update(fold.store)

    # -- assembly --------------------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        """The manifest in canonical order (see the module docstring)."""
        records: List[Dict[str, Any]] = [{
            "record": "ledger",
            "version": LEDGER_VERSION,
            "created_wall": self._created_wall,
        }]
        records.append(_environment_snapshot())
        records += self._stages + self.fold.records()
        if self._final is not None:
            records.append(self._final)
        # A stable sort: each type keeps its own order (stages by path,
        # tasks by index, the rest by arrival).
        return sorted(records, key=lambda r: _RANK[r["record"]])

    def write_jsonl(self, path) -> int:
        """Write the manifest as JSON lines; returns the record count.

        The write is atomic (:func:`~repro.obs.atomic.staged_file`): a
        failure mid-write leaves any previous ledger at ``path`` untouched
        and no staging file behind.  Missing parent directories are made.
        """
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        count = write_trace_jsonl(self.to_records(), path)
        get_metrics().inc("ledger.writes")
        get_metrics().inc("ledger.records", count)
        return count


def strip_volatile_records(
    records: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Records minus what varies from run to run.

    What remains is the run's logical identity: two runs of the same
    config must strip to byte-identical lists whatever backend, worker
    count or machine executed them — the ledger's worker-count-invariance
    contract, checked in CI next to the store-digest identity.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        rtype = record.get("record")
        source = RECORD_EVENT_KIND.get(rtype)
        if rtype == "alert":
            source = RECORD_EVENT_KIND.get(record.get("kind"), source)
        drop = VOLATILE_BY_KIND.get(source,
                                    VOLATILE_FIELDS.get(rtype, frozenset()))
        if drop == WHOLE_EVENT:
            continue
        out.append({k: v for k, v in record.items() if k not in drop})
    return out


def validate_ledger(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Check a ledger against schema v1; returns problem strings.

    Checks: header first with a supported version, every record typed
    and carrying its required fields, at most one run/env/sched/final
    record, task rows unique and in index order, final record last.
    An empty return value means the ledger is schema-valid.
    """
    problems: List[str] = []
    if not records:
        return ["empty ledger (no header record)"]
    head = records[0]
    if not isinstance(head, dict) or head.get("record") != "ledger":
        problems.append("record 0: expected the 'ledger' header first")
    elif head.get("version") != LEDGER_VERSION:
        problems.append(
            f"record 0: unsupported ledger version {head.get('version')!r} "
            f"(expected {LEDGER_VERSION})"
        )
    singletons = {"ledger": 0, "run": 0, "env": 0, "sched": 0, "final": 0}
    task_indexes: List[int] = []
    for i, record in enumerate(records):
        where = f"record {i}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        rtype = record.get("record")
        if rtype not in RECORD_TYPES:
            problems.append(f"{where}: unknown record type {rtype!r}")
            continue
        if rtype in singletons:
            singletons[rtype] += 1
        problems += field_problems(record, _REQUIRED[rtype],
                                   f"{where}: {rtype} ")
        if rtype == "task":
            index = record.get("index")
            if isinstance(index, int):
                task_indexes.append(index)
            sessions = record.get("sessions")
            if isinstance(sessions, int) and sessions < 0:
                problems.append(f"{where}: task sessions negative")
    for name, count in singletons.items():
        if count > 1:
            problems.append(f"{count} {name!r} records (at most one allowed)")
    if task_indexes != sorted(set(task_indexes)):
        problems.append("task rows not unique/ascending by index")
    final_positions = [i for i, r in enumerate(records)
                       if isinstance(r, dict) and r.get("record") == "final"]
    if final_positions and final_positions[0] != len(records) - 1:
        problems.append("'final' record is not last")
    return problems


__all__ = [
    "LEDGER_VERSION",
    "RECORD_TYPES",
    "STEPS",
    "VOLATILE_FIELDS",
    "RunLedger",
    "SchedFold",
    "TopFold",
    "sha256_file",
    "strip_volatile_records",
    "validate_ledger",
]
