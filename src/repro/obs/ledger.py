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

**Fold discipline** mirrors ``Metrics.merge``: task rows are keyed by
task index (a retry overwrites its earlier attempt's row) and written in
index order, stage rollups sort by span path — so a workers=1 ledger and
a workers=2 ledger of the same config are *identical* modulo the
declared-volatile fields (:data:`VOLATILE_FIELDS`: who ran it, physical
timings, pids) and the heartbeat trail (:data:`VOLATILE_RECORDS`).
:func:`strip_volatile_records` applies the declaration;
:func:`validate_ledger` checks the schema.  CI asserts both.

The module-global seam (:func:`get_ledger` / :func:`use_ledger`) follows
:mod:`repro.obs.metrics`: ``None`` means no ledger, and every hook in
the pipeline is a single ``None`` check — the steady state costs
nothing.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.export import read_trace_jsonl, write_trace_jsonl
from repro.obs.metrics import get_metrics

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

#: Record types dropped wholesale by :func:`strip_volatile_records`:
#: the heartbeat trail is pure physical liveness — its length and
#: content depend on worker count and timing by construction.
VOLATILE_RECORDS = frozenset({"heartbeat"})

#: Per-record-type fields that legitimately vary between two runs of the
#: same config (who ran it, physical timings, process identity).  What
#: remains after stripping is the run's *logical* identity and must be
#: byte-identical across backends and worker counts.
VOLATILE_FIELDS: Dict[str, frozenset] = {
    "ledger": frozenset({"created_wall"}),
    "run": frozenset({"backend", "workers"}),
    "env": frozenset({"pid", "cwd", "argv", "hostname"}),
    "sched": frozenset({"backend", "workers"}),
    "stage": frozenset({"wall", "cpu"}),
    "task": frozenset({
        "attempt", "worker", "run_seconds", "queue_seconds",
        "telemetry_version", "wall_seconds", "cpu_seconds",
        "cpu_user_seconds", "cpu_system_seconds", "max_rss_kb",
        "gc_collections", "gc_pause_seconds",
    }),
    "alert": frozenset(),
    "artifact": frozenset({"path"}),
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

    Hooks throughout the pipeline call the ``record_*`` / ``begin_run``
    methods (through :func:`get_ledger`, so a run without a ledger pays
    one ``None`` check); :meth:`write_jsonl` assembles and persists the
    file.  Assembly, not arrival, defines the order — which is what
    makes the output worker-count-invariant modulo declared-volatile
    fields.
    """

    def __init__(self) -> None:
        self._run: Optional[Dict[str, Any]] = None
        self._sched: Optional[Dict[str, Any]] = None
        self._tasks: Dict[int, Dict[str, Any]] = {}
        self._heartbeats: List[Dict[str, Any]] = []
        self._alerts: List[Dict[str, Any]] = []
        self._artifacts: List[Dict[str, Any]] = []
        self._stages: List[Dict[str, Any]] = []
        self._store: Optional[Dict[str, Any]] = None
        self._final: Optional[Dict[str, Any]] = None
        self._created_wall = time.time()
        self._start = time.perf_counter()

    # -- run identity ----------------------------------------------------------

    def begin_run(self, kind: str, *, config=None,
                  fingerprint: Optional[str] = None,
                  backend: Optional[str] = None,
                  workers: Optional[int] = None,
                  **extra: Any) -> None:
        """Open (or enrich) the run record.

        The first call pins ``kind`` (the CLI wraps the whole command, so
        its name wins over the library entry point's); later calls only
        fill fields still absent — ``repro report`` generating a dataset
        enriches the run record with the generate fingerprint rather than
        forking a second record.
        """
        if self._run is None:
            self._run = {"record": "run", "kind": str(kind)}
        fields: Dict[str, Any] = dict(extra)
        if config is not None:
            import dataclasses

            fields["config"] = dataclasses.asdict(config)
        if fingerprint is not None:
            fields["fingerprint"] = fingerprint
        if backend is not None:
            fields["backend"] = backend
        if workers is not None:
            fields["workers"] = int(workers)
        for key, value in fields.items():
            self._run.setdefault(key, value)

    # -- recording -------------------------------------------------------------

    def record_sched(self, *, backend: str, workers: int,
                     tasks: int) -> None:
        """The scheduler context: task count + executor."""
        self._sched = {
            "record": "sched",
            "tasks": int(tasks),
            "backend": str(backend),
            "workers": int(workers),
        }

    def record_task(self, task, *, sessions: int, attempt: int, worker: str,
                    run_seconds: float, queue_seconds: float,
                    telemetry: Optional[Dict[str, Any]] = None) -> None:
        """One completed :class:`~repro.sched.backends.ShardTask` attempt.

        Keyed by task index — a retry overwrites the earlier row, so
        exactly one row per task survives and rows assemble in index
        order regardless of completion order.
        """
        row: Dict[str, Any] = {
            "record": "task",
            "index": int(task.index),
            "kind": str(task.kind),
            "key": str(task.key),
            "start": int(task.start),
            "stop": int(task.stop),
            "sessions": int(sessions),
            "attempt": int(attempt),
            "worker": str(worker),
            "run_seconds": float(run_seconds),
            "queue_seconds": float(queue_seconds),
        }
        if telemetry:
            for key, value in telemetry.items():
                row.setdefault(key, value)
        self._tasks[row["index"]] = row
        get_metrics().inc("ledger.tasks")

    def record_heartbeat(self, payload: Dict[str, Any]) -> None:
        self._heartbeats.append(dict(payload, record="heartbeat"))

    def record_alert(self, kind: str, message: str, *,
                     time: Optional[float] = None,
                     honeypot_id: Optional[str] = None,
                     **data: Any) -> None:
        """One operational alert (farm health, stale worker, ...)."""
        record: Dict[str, Any] = {
            "record": "alert",
            "kind": str(kind),
            "message": str(message),
        }
        if time is not None:
            record["time"] = float(time)
        if honeypot_id is not None:
            record["honeypot_id"] = honeypot_id
        if data:
            record["data"] = data
        self._alerts.append(record)
        get_metrics().inc("ledger.alerts")

    def record_artifact(self, name: str, path, sha256: str) -> None:
        """A file the run wrote, with its content digest."""
        self._artifacts.append({
            "record": "artifact",
            "name": str(name),
            "path": str(path),
            "sha256": str(sha256),
        })

    def record_store(self, sha256: str, sessions: int,
                     cache_hit: bool = False) -> None:
        """The final merged store's identity (digest + session count)."""
        self._store = {"store_sha256": str(sha256),
                       "sessions": int(sessions)}
        if cache_hit:
            self._store["cache_hit"] = True

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
        self._final = {
            "record": "final",
            "status": str(status),
            "tasks": len(self._tasks),
            "alerts": len(self._alerts),
            "heartbeats": len(self._heartbeats),
            "wall_seconds": time.perf_counter() - self._start,
        }
        if self._store:
            self._final.update(self._store)

    # -- assembly --------------------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        """The manifest in canonical order (see the module docstring)."""
        records: List[Dict[str, Any]] = [{
            "record": "ledger",
            "version": LEDGER_VERSION,
            "created_wall": self._created_wall,
        }]
        if self._run is not None:
            records.append(self._run)
        records.append(_environment_snapshot())
        if self._sched is not None:
            records.append(self._sched)
        records.extend(self._stages)
        records.extend(self._tasks[i] for i in sorted(self._tasks))
        records.extend(self._heartbeats)
        records.extend(self._alerts)
        records.extend(self._artifacts)
        if self._final is not None:
            records.append(self._final)
        return records

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


def read_ledger_jsonl(path) -> List[Dict[str, Any]]:
    """Read a ledger previously written by :meth:`RunLedger.write_jsonl`."""
    return read_trace_jsonl(path)


def strip_volatile_records(
    records: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Records minus volatile record types and fields.

    What remains is the run's logical identity: two runs of the same
    config must strip to byte-identical lists whatever backend, worker
    count or machine executed them — the ledger's worker-count-invariance
    contract, checked in CI next to the store-digest identity.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        rtype = record.get("record")
        if rtype in VOLATILE_RECORDS:
            continue
        drop = VOLATILE_FIELDS.get(rtype, frozenset())
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
        for field, types in _REQUIRED[rtype].items():
            value = record.get(field)
            if value is None or isinstance(value, bool) \
                    or not isinstance(value, types):
                problems.append(
                    f"{where}: {rtype} field {field!r} missing or not "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
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


# -- the current ledger --------------------------------------------------------
#
# ``None`` means no ledger is being kept — the steady state.  Pipeline
# hooks call :func:`get_ledger` and test for None, mirroring the tracer's
# module-global seam.

_LEDGER: Optional[RunLedger] = None


def get_ledger() -> Optional[RunLedger]:
    """The ledger the current run records into (None = no ledger)."""
    return _LEDGER


def set_ledger(ledger: Optional[RunLedger]) -> Optional[RunLedger]:
    """Install ``ledger`` (or disable recording with None). Returns it."""
    global _LEDGER
    _LEDGER = ledger
    return ledger


@contextmanager
def use_ledger(ledger: Optional[RunLedger]) -> Iterator[Optional[RunLedger]]:
    """Swap ``ledger`` in for the scope (None silences recording)."""
    global _LEDGER
    previous = _LEDGER
    _LEDGER = ledger
    try:
        yield ledger
    finally:
        _LEDGER = previous


__all__ = [
    "LEDGER_VERSION",
    "RECORD_TYPES",
    "VOLATILE_FIELDS",
    "VOLATILE_RECORDS",
    "RunLedger",
    "get_ledger",
    "read_ledger_jsonl",
    "set_ledger",
    "sha256_file",
    "strip_volatile_records",
    "use_ledger",
    "validate_ledger",
]
