"""Execution backends: where a :class:`ShardTask` runs.

Two conformance-tested implementations of one contract:

* :class:`InlineBackend` — in-process, synchronous.  The debugging and
  golden path: the pool must produce byte-identical stores.
* :class:`PoolBackend` — a self-healing multiprocess pool of a fixed
  ``workers`` processes.  Workers are long-lived processes, each talking
  to the parent over one duplex pipe of its own (tasks in; heartbeats
  and results out); the pool detects worker death and respawns a
  replacement, and resubmission is the scheduler's call (the tasks the
  dead worker had started come back as error outcomes).

The contract is deliberately narrow — ``open`` / ``submit`` / ``collect``
/ ``close`` — so the :class:`~repro.sched.scheduler.Scheduler` owns every
policy decision (retry, the stall guard, stale-worker alerts) and
backends own only execution.  All timing uses :func:`repro.obs.stopwatch`;
backends never read the clock directly.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import stopwatch
from repro.obs.resources import ResourceSampler, worker_heartbeat

#: Env var naming a task index whose first execution attempt must crash
#: the worker (fault injection for the retry-path tests).  The companion
#: ``REPRO_SCHED_FAIL_ONCE_DIR`` names a directory of per-index marker
#: files so the crash happens exactly once.
FAIL_TASK_ENV = "REPRO_SCHED_FAIL_TASK"
FAIL_ONCE_DIR_ENV = "REPRO_SCHED_FAIL_ONCE_DIR"


@dataclass(frozen=True)
class ShardTask:
    """One schedulable unit of work: a shard of the plan.

    ``index`` is the shard's position in the plan enumeration — the merge
    order, and therefore the only ordering that affects the output.
    """

    index: int
    kind: str
    key: str
    start: int
    stop: int

    @property
    def trace_id(self) -> str:
        """The stable flight-recorder id shared with the shard's events."""
        return f"sched:{self.kind}:{self.key}:{self.start}"


@dataclass
class TaskOutcome:
    """What came back for one task attempt.

    Either a result (``store``: the shard's
    :class:`~repro.store.store.ShardPayload`, rows plus table tails, with
    worker-side ``metrics``/``events``) or an ``error`` string — never
    both.  ``run_seconds`` is the worker-side
    execution wall; the scheduler derives queueing from it.
    ``telemetry`` is the worker's per-task resource sample
    (:class:`repro.obs.resources.ResourceSampler` dict form) — physical
    accounting only, never part of the output contract.
    """

    task: ShardTask
    attempt: int
    worker: str
    store: Any = None
    metrics: Optional[Dict] = None
    events: Optional[List[Dict]] = None
    run_seconds: float = 0.0
    error: Optional[str] = None
    telemetry: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BackendError(RuntimeError):
    """A backend broke its contract (not a task failure — those are

    :class:`TaskOutcome` errors the scheduler can retry)."""


class Backend(ABC):
    """The execution contract the scheduler drives.

    Lifecycle: ``open`` once, then interleaved ``submit``/``collect``,
    then ``close``.  ``collect`` returns every finished outcome it can
    without blocking longer than ``timeout`` seconds; a backend with
    nothing in flight returns immediately.
    """

    #: Human name, also the CLI spelling (``--backend pool``).
    name: str = "?"

    @abstractmethod
    def open(self, config, want_trace: bool) -> None:
        """Bind the backend to a scenario config before any submit."""

    @abstractmethod
    def submit(self, task: ShardTask, attempt: int = 1) -> None:
        """Enqueue one task attempt (non-blocking)."""

    @abstractmethod
    def collect(self, timeout: float = 0.25) -> List[TaskOutcome]:
        """Finished outcomes, blocking at most ``timeout`` s for the first."""

    def heartbeats(self) -> List[Dict]:
        """Worker heartbeat payloads observed since the last call.

        Payloads follow :func:`repro.obs.resources.worker_heartbeat`;
        ``beat`` is per-worker monotonic, so consumers dedupe on it and
        a backend may return the same beat twice without harm.  The
        default (no liveness channel) reports nothing.
        """
        return []

    @property
    def workers(self) -> int:
        """Current execution slots (1 for inline)."""
        return 1

    @abstractmethod
    def close(self) -> None:
        """Release processes/files.  Idempotent."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _emit_task(config, index: int, want_trace: bool):
    """Run one shard task in this process via the shard kernel."""
    from repro.workload.shards import _emit_indexed

    return _emit_indexed((config, index, want_trace))


def _run_task(config, index: int, want_trace: bool):
    """One shard task under a resource sampler: (payload, metrics, events,
    telemetry).  The shared executor body of both backends."""
    with ResourceSampler() as sampler:
        payload, metrics, events = _emit_task(config, index, want_trace)
    return payload, metrics, events, sampler.to_dict()


def _maybe_fail_once(index: int) -> None:
    """Fault injection: crash this process once for the configured task."""
    target = os.environ.get(FAIL_TASK_ENV)
    if target is None or int(target) != index:
        return
    marker_dir = os.environ.get(FAIL_ONCE_DIR_ENV)
    if not marker_dir:
        return
    marker = Path(marker_dir) / f"failed-{index}"
    if marker.exists():
        return
    marker.touch()
    os._exit(17)


# -- inline --------------------------------------------------------------------


class InlineBackend(Backend):
    """Synchronous in-process execution — the golden path.

    ``collect`` runs exactly one pending task per call, so the scheduler
    loop observes the same submit/collect cadence it would against an
    asynchronous backend.
    """

    name = "inline"

    def __init__(self) -> None:
        self._pending: List[Tuple[ShardTask, int]] = []
        self._config = None
        self._want_trace = False
        self._done = 0
        self._sessions_done = 0
        self._last_index: Optional[int] = None
        self._reported_beat = 0

    def open(self, config, want_trace: bool) -> None:
        self._config = config
        self._want_trace = want_trace

    def submit(self, task: ShardTask, attempt: int = 1) -> None:
        self._pending.append((task, attempt))

    def collect(self, timeout: float = 0.25) -> List[TaskOutcome]:
        if not self._pending:
            return []
        task, attempt = self._pending.pop(0)
        watch = stopwatch()
        payload, metrics, events, telemetry = _run_task(
            self._config, task.index, self._want_trace
        )
        self._done += 1
        self._sessions_done += len(payload)
        self._last_index = task.index
        return [TaskOutcome(
            task=task, attempt=attempt, worker="inline", store=payload,
            metrics=metrics, events=events, run_seconds=watch.elapsed(),
            telemetry=telemetry,
        )]

    def heartbeats(self) -> List[Dict]:
        # Synchronous, so "liveness" degenerates to one beat per batch of
        # completed tasks — but the scheduler and dashboard see the same
        # protocol every backend speaks.
        if self._done == self._reported_beat:
            return []
        self._reported_beat = self._done
        return [worker_heartbeat(
            "inline", beat=self._done, state="idle",
            last_index=self._last_index, tasks_done=self._done,
            sessions_done=self._sessions_done,
        )]

    def close(self) -> None:
        self._pending.clear()


# -- multiprocess pool ---------------------------------------------------------


#: Tasks per pipe message and results per flush.  Flushing every
#: ``_BATCH`` results lets the parent refill while the worker chews the
#: rest.
_BATCH = 4


def _pool_worker_main(worker_id, config, want_trace, conn) -> None:
    """Worker loop: read task batches off the worker's own duplex pipe,
    emit shards, send heartbeats and result batches back on it.

    Messages are ``("heartbeat", payload)``, sent as each task is picked
    up — a stuck worker is one the parent stops hearing from, and a task
    the parent holds a beat for has started — and ``("batch", [outcome,
    ...])``.  Each outcome is ``("done", index, attempt, result)`` or
    ``("error", index, attempt, message)``; a done result is ``(payload,
    metrics, events, run_seconds, telemetry)``, where the payload is the
    shard's rows plus the side-table entries it interned past its fork
    marks (:class:`~repro.store.store.ShardPayload`), so no table copy
    crosses the pipe.  Results buffer while more tasks wait and flush the
    moment the worker would otherwise idle, so message count scales with
    scheduling round-trips, not task count.  The pipe is the worker's
    only tie to the parent: it exits on EOF (the parent closed its end,
    or died) or a broken pipe, and ignores SIGINT, so the parent alone
    decides when the pool stops.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    name = f"pool-{worker_id}"
    out: list = []
    local: deque = deque()
    beat = done = sessions_done = 0
    try:
        while True:
            if not local:
                local.extend(conn.recv())
                continue
            index, attempt = local.popleft()
            beat += 1
            conn.send(("heartbeat", worker_heartbeat(
                name, beat=beat, state="run", last_index=index,
                tasks_done=done, sessions_done=sessions_done,
            )))
            _maybe_fail_once(index)
            watch = stopwatch()
            try:
                payload, metrics, events, telemetry = _run_task(
                    config, index, want_trace
                )
            except Exception as exc:  # ships back as a retryable task error
                out.append(("error", index, attempt,
                            f"{type(exc).__name__}: {exc}"))
            else:
                done += 1
                sessions_done += len(payload)
                out.append(("done", index, attempt,
                            (payload, metrics, events, watch.elapsed(),
                             telemetry)))
            if len(out) >= _BATCH or (not local and not conn.poll()):
                conn.send(("batch", out))
                out = []
    except (EOFError, OSError):
        return  # the parent closed the pool or is gone


@dataclass
class _Worker:
    """Parent-side view of one pool process."""

    proc: multiprocessing.Process
    conn: Any                           # parent end of the worker's pipe
    assigned: "OrderedDict[int, int]"   # index -> attempt, dispatch order
    started: Set[int]                   # indexes it sent a pickup beat for


class PoolBackend(Backend):
    """A self-healing pool of a fixed number of worker processes.

    Workers inherit the parent's shard plan copy-on-write under the fork
    start method (spawn, the only choice where fork is missing, makes
    workers rebuild it, identically, on their first task).  Each worker
    owns one duplex pipe; the parent dispatches least-loaded up to
    :attr:`depth` tasks ahead and waits on every pipe plus every process
    sentinel, so it always knows which tasks a worker holds and which
    it has started.  A worker that dies is drained to EOF first — every
    beat and batch it sent is handled — then the tasks it had started
    come back as error outcomes (the scheduler decides on retry), the
    ones it never picked up return to the backlog without spending an
    attempt, and a replacement worker is spawned so capacity stays at
    ``workers`` until ``close``.
    """

    name = "pool"

    #: Tasks dispatched ahead to one worker, in pipe messages of at most
    #: ``_BATCH``.  Deep enough that a worker flushing results mid-batch
    #: keeps computing while the parent refills — it never waits on a
    #: parent round-trip for its next task.  A dead worker's tasks that
    #: never started are re-dispatched for free; only what it had picked
    #: up (at most ``_BATCH`` plus unflushed results) is retried.
    depth = 8

    def __init__(self, workers: int = 1):
        self._size = max(1, int(workers))
        self._workers: Dict[int, _Worker] = {}
        self._backlog: deque = deque()  # (index, attempt) not yet dispatched
        self._tasks: Dict[int, ShardTask] = {}
        self._next_worker_id = 0
        self._ctx: Any = None
        self._config = None
        self._want_trace = False
        self._heartbeats: List[Dict] = []
        self.deaths = 0

    def open(self, config, want_trace: bool) -> None:
        self._config = config
        self._want_trace = want_trace
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            self._ctx = multiprocessing.get_context("spawn")
        for _ in range(self._size):
            self._spawn()

    def _spawn(self) -> None:
        # Imported here, not at module level: inline runs never need them.
        from multiprocessing.util import register_after_fork

        worker_id = self._next_worker_id
        self._next_worker_id += 1
        conn, child_conn = self._ctx.Pipe()
        # A forked child inherits this end; close it there, or the copy
        # keeps the pipe open after the parent dies and the worker never
        # reads EOF.
        register_after_fork(conn, type(conn).close)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(worker_id, self._config, self._want_trace, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[worker_id] = _Worker(
            proc=proc, conn=conn, assigned=OrderedDict(), started=set()
        )

    @property
    def workers(self) -> int:
        return len(self._workers)

    def submit(self, task: ShardTask, attempt: int = 1) -> None:
        if self._ctx is None:
            raise BackendError("submit before open()")
        self._tasks[task.index] = task
        self._backlog.append((task.index, attempt))

    def _dispatch(self) -> None:
        """Feed backlog to live workers, least-loaded first, ``depth`` deep.

        Submissions accumulate in the backlog and ship here in pipe
        messages of at most ``_BATCH`` tasks per worker, so IPC scales
        with scheduling rounds rather than tasks.
        """
        sends: Dict[int, List[Tuple[int, int]]] = {}
        while self._backlog:
            eligible = [
                (len(w.assigned), wid) for wid, w in self._workers.items()
                if len(w.assigned) < self.depth
            ]
            if not eligible:
                break
            _, worker_id = min(eligible)
            index, attempt = self._backlog.popleft()
            self._workers[worker_id].assigned[index] = attempt
            sends.setdefault(worker_id, []).append((index, attempt))
        for worker_id in sorted(sends):
            batch = sends[worker_id]
            try:
                for lo in range(0, len(batch), _BATCH):
                    self._workers[worker_id].conn.send(batch[lo:lo + _BATCH])
            except OSError:
                pass  # dead: reaping returns the unstarted tasks to the backlog

    def collect(self, timeout: float = 0.25) -> List[TaskOutcome]:
        from multiprocessing.connection import wait

        outcomes: List[TaskOutcome] = []
        self._dispatch()  # ship anything submitted since the last round
        ready = set(wait(
            [w.conn for w in self._workers.values()]
            + [w.proc.sentinel for w in self._workers.values()],
            timeout,
        ))
        for worker_id in sorted(self._workers):
            worker = self._workers[worker_id]
            dead = worker.proc.sentinel in ready
            if dead or worker.conn in ready:
                # A dead worker is read to EOF before its tasks are
                # settled, so nothing it sent is counted after the fact.
                if self._read(worker_id, worker, outcomes, to_eof=dead):
                    outcomes.extend(self._reap(worker_id))
        self._dispatch()
        return outcomes

    def heartbeats(self) -> List[Dict]:
        beats, self._heartbeats = self._heartbeats, []
        return beats

    def _read(self, worker_id: int, worker: _Worker,
              outcomes: List[TaskOutcome], to_eof: bool) -> bool:
        """Handle the messages waiting on a worker's pipe (all of them up
        to EOF with ``to_eof``); True once the pipe reached EOF."""
        try:
            while to_eof or worker.conn.poll():
                outcomes.extend(self._handle(worker_id, worker,
                                             worker.conn.recv()))
        except (EOFError, OSError):  # OSError: cut off mid-message
            return True
        return False

    def _handle(self, worker_id: int, worker: _Worker,
                message) -> List[TaskOutcome]:
        tag, body = message
        if tag == "heartbeat":
            worker.started.add(body["last_index"])
            self._heartbeats.append(body)
            return []
        outcomes: List[TaskOutcome] = []
        for kind, index, attempt, result in body:
            worker.assigned.pop(index, None)
            worker.started.discard(index)
            task = self._tasks[index]
            if kind == "error":
                outcomes.append(TaskOutcome(
                    task=task, attempt=attempt,
                    worker=f"pool-{worker_id}", error=result,
                ))
                continue
            payload, metrics, events, run_seconds, telemetry = result
            outcomes.append(TaskOutcome(
                task=task, attempt=attempt, worker=f"pool-{worker_id}",
                store=payload, metrics=metrics, events=events,
                run_seconds=run_seconds, telemetry=telemetry,
            ))
        return outcomes

    def _reap(self, worker_id: int) -> List[TaskOutcome]:
        """Settle a dead worker's tasks: error out what it had started,
        return what it never picked up to the backlog, respawn."""
        worker = self._workers.pop(worker_id)
        worker.conn.close()
        proc = worker.proc
        proc.join(timeout=1.0)
        self.deaths += 1
        outcomes: List[TaskOutcome] = []
        unstarted: List[Tuple[int, int]] = []
        for index, attempt in worker.assigned.items():
            if index not in worker.started:
                unstarted.append((index, attempt))
                continue
            outcomes.append(TaskOutcome(
                task=self._tasks[index], attempt=attempt,
                worker=f"pool-{worker_id}",
                error=f"worker {worker_id} died (exitcode {proc.exitcode})",
            ))
        self._backlog.extendleft(reversed(unstarted))
        self._spawn()  # heal: keep capacity at the requested size
        return outcomes

    def close(self) -> None:
        for worker in self._workers.values():
            worker.conn.close()
            worker.proc.terminate()  # nothing a worker still holds is wanted
        for worker in self._workers.values():
            worker.proc.join(timeout=1.0)
        self._workers.clear()
        self._backlog.clear()
        self._ctx = None


# -- factory -------------------------------------------------------------------

#: CLI/API backend spellings -> constructor.
BACKEND_NAMES = ("inline", "pool")


def default_backend(workers: int) -> str:
    """The backend a run gets when none is named: inline for one worker
    (no fork, no IPC), the pool for more."""
    return "inline" if workers <= 1 else "pool"


def make_backend(name: str, workers: int = 1) -> Backend:
    """A backend instance from its CLI spelling."""
    if name == "inline":
        return InlineBackend()
    if name == "pool":
        return PoolBackend(workers=workers)
    raise ValueError(
        f"unknown backend {name!r} (expected one of {', '.join(BACKEND_NAMES)})"
    )
