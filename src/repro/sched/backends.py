"""Execution backends: where a :class:`ShardTask` runs.

Two conformance-tested implementations of one contract:

* :class:`InlineBackend` — in-process, synchronous.  The debugging and
  golden path: the pool must produce byte-identical stores.
* :class:`PoolBackend` — a self-healing multiprocess pool of a fixed
  ``workers`` processes.  Workers are long-lived processes fed from a
  task queue; the pool detects worker death and respawns a replacement,
  and resubmission is the scheduler's call (the dead worker's task comes
  back as an error outcome).

The contract is deliberately narrow — ``open`` / ``submit`` / ``collect``
/ ``close`` — so the :class:`~repro.sched.scheduler.Scheduler` owns every
policy decision (retry, the stall guard, stale-worker alerts) and
backends own only execution.  All timing uses :func:`repro.obs.stopwatch`;
backends never read the clock directly.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

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


#: Tasks per pipe message and results per flush.  A worker holds at most
#: one message's tasks in memory, so half of a full dispatch depth stays
#: recoverable from the pipe if it dies; flushing every ``_BATCH``
#: results lets the parent refill while the worker chews the rest.
_BATCH = 4


def _pool_worker_main(worker_id, config, want_trace, task_queue,
                      result_queue) -> None:
    """Worker loop: pull task indexes off a private queue, emit shards,
    ship result batches back on the shared (buffered) result queue.

    Messages are ``("batch", worker_id, [outcome, ...])`` and
    ``("heartbeat", worker_id, payload)`` liveness beats sent on each
    task pickup — the existing result pipe doubles as the liveness
    channel, so a stuck worker is one the parent stops hearing from,
    with its last-known task on record.  Each
    outcome in a batch is ``("done", index, attempt, result)`` or
    ``("error", index, attempt, message)``; a done result is ``(payload,
    metrics, events, run_seconds, telemetry)``.  The payload is the
    shard's rows plus, per side table, its fork mark and the entries it
    interned after it (:class:`~repro.store.store.ShardPayload`): the
    parent holds everything below the marks, so no table copy crosses the
    pipe.  The telemetry dict is sampled by
    :class:`repro.obs.resources.ResourceSampler`.
    Results buffer locally while more tasks wait in the private queue and
    flush the moment the worker would otherwise idle — so message count
    scales with scheduling round-trips, not task count, and ``put`` hands
    off to a feeder thread (the worker never blocks on the parent
    draining the pipe).  Task accounting lives entirely in the parent (it
    knows what it dispatched to whom), so no per-task "start" message is
    needed.
    """
    out: list = []
    local: deque = deque()
    beat = 0
    done = 0
    sessions_done = 0
    while True:
        if not local:
            item = task_queue.get()
            if item is None:  # the close sentinel
                return
            local.extend(item)
            continue
        index, attempt = local.popleft()
        # Crash before this task's heartbeat is queued: a process that
        # exits while its feeder thread holds the shared result-queue
        # lock wedges every other worker's put.
        _maybe_fail_once(index)
        beat += 1
        result_queue.put(("heartbeat", worker_id, worker_heartbeat(
            f"pool-{worker_id}", beat=beat, state="run", last_index=index,
            tasks_done=done, sessions_done=sessions_done,
        )))
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
        if (not local and task_queue.empty()) or len(out) >= _BATCH:
            result_queue.put(("batch", worker_id, out))
            out = []


@dataclass
class _Worker:
    """Parent-side view of one pool process."""

    proc: multiprocessing.Process
    task_queue: Any                     # private SimpleQueue, parent -> worker
    assigned: "OrderedDict[int, int]"   # index -> attempt, dispatch order


class PoolBackend(Backend):
    """A self-healing pool of a fixed number of worker processes.

    Workers inherit the parent's shard plan copy-on-write under the fork
    start method (spawn-started workers rebuild it, identically, on their
    first task).  Each worker owns a private task pipe and the parent
    dispatches least-loaded up to :attr:`depth` tasks ahead, so the
    parent always knows exactly which tasks a worker holds.  A worker
    that dies is detected by liveness polling: tasks still sitting
    unread in its pipe are silently recovered and re-dispatched (they
    never started), the task it was actually executing comes back as an
    error outcome (the scheduler decides on retry), and a replacement
    worker is spawned so capacity stays at ``workers`` until ``close``.
    """

    name = "pool"

    #: Tasks dispatched ahead to one worker, in pipe messages of at most
    #: ``_BATCH``.  Deep enough that a worker flushing results mid-batch
    #: keeps computing while the parent refills — it never waits on a
    #: parent round-trip for its next task.  Tasks still unread in the
    #: pipe are recoverable if the worker dies; only what it had already
    #: picked up (at most ``_BATCH`` plus unflushed results) is lost.
    depth = 8

    def __init__(self, workers: int = 1, start_method: Optional[str] = None):
        self._size = max(1, int(workers))
        self._start_method = start_method
        self._workers: Dict[int, _Worker] = {}
        self._backlog: deque = deque()  # (index, attempt) not yet dispatched
        self._tasks: Dict[int, ShardTask] = {}
        self._next_worker_id = 0
        self._ctx = None
        self._results = None
        self._config = None
        self._want_trace = False
        self._heartbeats: List[Dict] = []
        self.deaths = 0

    def _context(self):
        if self._ctx is None:
            method = self._start_method
            if method is None:
                try:
                    multiprocessing.get_context("fork")
                    method = "fork"
                except ValueError:
                    method = "spawn"
            self._ctx = multiprocessing.get_context(method)
        return self._ctx

    def open(self, config, want_trace: bool) -> None:
        self._config = config
        self._want_trace = want_trace
        self._results = self._context().Queue()
        for _ in range(self._size):
            self._spawn()

    def _spawn(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        ctx = self._context()
        task_queue = ctx.SimpleQueue()
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(worker_id, self._config, self._want_trace,
                  task_queue, self._results),
            daemon=True,
        )
        proc.start()
        self._workers[worker_id] = _Worker(
            proc=proc, task_queue=task_queue, assigned=OrderedDict()
        )

    @property
    def workers(self) -> int:
        return len(self._workers)

    def submit(self, task: ShardTask, attempt: int = 1) -> None:
        if self._results is None:
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
            q = self._workers[worker_id].task_queue
            for lo in range(0, len(batch), _BATCH):
                q.put(batch[lo:lo + _BATCH])

    def collect(self, timeout: float = 0.25) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        self._dispatch()  # ship anything submitted since the last round
        wait = timeout
        while True:
            try:
                message = (self._results.get(timeout=wait) if wait
                           else self._results.get_nowait())
            except queue.Empty:
                break
            wait = 0  # drain whatever else already arrived, don't re-block
            outcomes.extend(self._handle(message))
        outcomes.extend(self._reap_dead())
        self._dispatch()
        return outcomes

    def heartbeats(self) -> List[Dict]:
        beats, self._heartbeats = self._heartbeats, []
        return beats

    def _handle(self, message) -> List[TaskOutcome]:
        tag, worker_id, batch = message
        if tag == "heartbeat":
            self._heartbeats.append(batch)
            return []
        outcomes: List[TaskOutcome] = []
        worker = self._workers.get(worker_id)
        for kind, index, attempt, result in batch:
            if worker is not None:
                worker.assigned.pop(index, None)
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

    def _reap_dead(self) -> List[TaskOutcome]:
        """Recover a dead worker's tasks: re-dispatch what never started,
        error out what it was executing."""
        outcomes: List[TaskOutcome] = []
        for worker_id in sorted(self._workers):
            worker = self._workers[worker_id]
            if worker.proc.is_alive():
                continue
            proc = worker.proc
            proc.join(timeout=1.0)
            del self._workers[worker_id]
            self.deaths += 1
            # Tasks still unread in the dead worker's pipe never started;
            # pull them back and hand them to a living worker — no retry
            # burned.  Whatever it had actually picked up is lost work.
            recovered: List[Tuple[int, int]] = []
            try:
                while not worker.task_queue.empty():
                    item = worker.task_queue.get()
                    for pair in item or ():
                        worker.assigned.pop(pair[0], None)
                        recovered.append(pair)
            except (OSError, EOFError):
                # The dead worker's pipe end is broken mid-drain; whatever
                # could not be read back errors out below as lost work.
                pass
            self._backlog.extendleft(reversed(recovered))
            for index, attempt in worker.assigned.items():
                outcomes.append(TaskOutcome(
                    task=self._tasks[index], attempt=attempt,
                    worker=f"pool-{worker_id}",
                    error=f"worker {worker_id} died "
                          f"(exitcode {proc.exitcode})",
                ))
            self._spawn()  # heal: keep capacity at the requested size
        return outcomes

    def close(self) -> None:
        for worker in self._workers.values():
            worker.task_queue.put(None)
        for worker in self._workers.values():
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
        self._workers.clear()
        self._backlog.clear()
        if self._results is not None:
            self._results.close()
            self._results = None


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
