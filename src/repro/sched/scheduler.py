"""The shard scheduler: drain the plan's shard tasks through a backend.

The :class:`Scheduler` owns every policy decision the backends do not:

* **feeding** — tasks are submitted in the order given (plan index
  order from :func:`generate_scheduled`), at most
  :data:`FEED_PER_WORKER` per worker in flight, so the backend queue
  stays short enough to react to;
* **retry** — a task that comes back as an error (a task exception or a
  worker death) is re-queued with attempt+1 after a backoff measured in
  collect cycles, up to :data:`MAX_TASK_ATTEMPTS`;
* **liveness** — worker heartbeats are folded in every round, a worker
  silent past :data:`HEARTBEAT_STALE_SECONDS` raises a stale-worker
  alert, and the stall guard fails the run after :data:`STALL_COLLECTS`
  empty rounds with work outstanding.

These policies are module constants; :class:`SchedulerConfig` carries
only what varies between runs, the worker count.

None of this can change the output: every task's payload is a pure
function of (config, shard key) via named rng streams, and the merge in
:func:`generate_scheduled` runs in task-index order.  Scheduling decides
*when and where* work runs — never what it produces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import get_metrics, stopwatch
from repro.obs import trace as _trace
from repro.sched.backends import (
    Backend,
    ShardTask,
    TaskOutcome,
    default_backend,
    make_backend,
)


class SchedulerError(RuntimeError):
    """The tasks could not be drained (exhausted retries or a stall)."""


#: Attempts per task before the run fails (1 = no retry).
MAX_TASK_ATTEMPTS = 3
#: Collect cycles to wait before re-queuing attempt ``n`` (doubles per
#: failed attempt — the bounded backoff).
RETRY_BACKOFF_COLLECTS = 2
#: Longest single wait for results (seconds, passed to collect()).
COLLECT_TIMEOUT = 0.25
#: In-flight tasks per worker: enough to keep every pool worker's
#: dispatch pipe full (``PoolBackend.depth``).
FEED_PER_WORKER = 8
#: Abort after this many consecutive empty collects with work
#: outstanding (a dead backend; ~10 min at ``COLLECT_TIMEOUT``).
STALL_COLLECTS = 2400
#: Surface a worker as stale after this many seconds without a heartbeat
#: while work is in flight.  This fires long before the stall guard: one
#: silent worker in a healthy pool never empties ``collect``, so only the
#: heartbeat channel can name it.
HEARTBEAT_STALE_SECONDS = 30.0


@dataclass(frozen=True)
class SchedulerConfig:
    """The run's shape: the one setting that varies between runs."""

    #: Worker-pool size; the pool keeps it from ``open`` to ``close``.
    workers: int = 1


class _HeartbeatMonitor:
    """Parent-side view of worker liveness, fed from backend heartbeats.

    Dedupes on each worker's monotonic ``beat`` counter (a backend may
    report the same beat twice) and tracks silence: a worker unheard
    from for longer than :data:`HEARTBEAT_STALE_SECONDS` while work is
    in flight is reported exactly once per silent episode (a fresh beat
    re-arms it).  Everything here is physical telemetry — the counters
    and events it produces are all declared volatile.
    """

    def __init__(self) -> None:
        self._seen: Dict[str, int] = {}       # worker -> highest beat
        self._last: Dict[str, object] = {}    # worker -> Stopwatch
        self._last_index: Dict[str, object] = {}  # worker -> its last task
        self._stale: set = set()              # workers already reported

    def observe(self, beats: List[Dict], inflight: int, metrics) -> None:
        """Fold fresh beats in, then name each worker gone silent."""
        for beat in beats:
            worker = str(beat.get("worker", "?"))
            seq = int(beat.get("beat", 0))
            if seq <= self._seen.get(worker, 0):
                continue  # replayed or stale payload
            self._seen[worker] = seq
            self._last[worker] = stopwatch()
            self._last_index[worker] = beat.get("last_index")
            self._stale.discard(worker)
            metrics.inc("sched.heartbeat.received")
            rss = beat.get("rss_kb")
            if rss:
                metrics.gauge_max("sched.heartbeat.rss_kb_peak", rss)
            _trace.emit("sched.heartbeat.worker",
                        trace_id=f"sched.worker:{worker}", **beat)
        if inflight <= 0:
            return
        for worker in sorted(self._last):
            silent = self._last[worker].elapsed()
            if worker in self._stale or silent <= HEARTBEAT_STALE_SECONDS:
                continue
            self._stale.add(worker)
            metrics.inc("sched.heartbeat.stale")
            _trace.emit(
                "sched.heartbeat.stale", trace_id=f"sched.worker:{worker}",
                worker=worker, silent_seconds=round(silent, 3),
                last_index=self._last_index[worker],
            )


class Scheduler:
    """Drains one run's :class:`ShardTask` list through one :class:`Backend`."""

    def __init__(self, backend: Backend,
                 config: Optional[SchedulerConfig] = None):
        self.backend = backend
        self.config = config or SchedulerConfig()

    def run(self, tasks: Sequence[ShardTask], scenario_config,
            want_trace: bool = False) -> List[TaskOutcome]:
        """Execute every task; outcomes returned in task-index order.

        ``tasks`` are submitted in the order given.  Raises
        :class:`SchedulerError` when a task exhausts its attempts or the
        backend stalls.  The backend is opened and closed here.
        """
        metrics = get_metrics()
        backend = self.backend
        backend.open(scenario_config, want_trace)
        try:
            return self._drain(tasks, metrics)
        finally:
            backend.close()

    # -- the drain loop --------------------------------------------------------

    def _drain(self, tasks: Sequence[ShardTask],
               metrics) -> List[TaskOutcome]:
        backend = self.backend
        pending: Deque[Tuple[ShardTask, int]] = deque(
            (task, 1) for task in tasks
        )
        delayed: List[Tuple[int, ShardTask, int]] = []  # (eligible_cycle, ...)
        results: Dict[int, TaskOutcome] = {}
        watches: Dict[int, object] = {}   # index -> Stopwatch since submit
        inflight = 0
        cycle = 0
        idle_collects = 0
        n_tasks = len(tasks)
        feed_window = FEED_PER_WORKER * self.config.workers
        heartbeats = _HeartbeatMonitor()

        while len(results) < n_tasks:
            cycle += 1
            # Retries whose backoff has elapsed rejoin the queue tail.
            if delayed:
                still = []
                for eligible, task, attempt in delayed:
                    if eligible <= cycle:
                        pending.append((task, attempt))
                    else:
                        still.append((eligible, task, attempt))
                delayed = still
            while pending and inflight < feed_window:
                task, attempt = pending.popleft()
                self._submit(task, attempt, metrics, watches)
                inflight += 1

            outcomes = backend.collect(timeout=COLLECT_TIMEOUT)
            # Liveness first, completions second: a stuck worker must be
            # surfaced even on (especially on) rounds that return nothing.
            heartbeats.observe(backend.heartbeats(), inflight, metrics)
            if not outcomes:
                if inflight or delayed or pending:
                    idle_collects += 1
                    if idle_collects >= STALL_COLLECTS:
                        raise SchedulerError(
                            f"backend {backend.name!r} stalled with "
                            f"{n_tasks - len(results)} task(s) outstanding"
                        )
                continue
            idle_collects = 0

            for outcome in outcomes:
                inflight -= 1
                if outcome.ok:
                    self._complete(outcome, metrics, watches)
                    results[outcome.task.index] = outcome
                else:
                    delayed = self._retry(outcome, cycle, delayed, metrics)

            metrics.gauge_max("sched.backlog_peak",
                              len(pending) + len(delayed) + inflight)

        return [results[index] for index in sorted(results)]

    # -- steps -----------------------------------------------------------------

    def _submit(self, task: ShardTask, attempt: int, metrics,
                watches: Dict) -> None:
        self.backend.submit(task, attempt)
        if task.index not in watches:  # keep the first submission's clock
            watches[task.index] = stopwatch()
        metrics.inc("sched.tasks_submitted")
        _trace.emit(
            "sched.task.submit", trace_id=task.trace_id,
            index=task.index, shard_kind=task.kind, attempt=attempt,
        )

    def _complete(self, outcome: TaskOutcome, metrics,
                  watches: Dict) -> None:
        task = outcome.task
        total = watches[task.index].elapsed()
        queue_seconds = max(0.0, total - outcome.run_seconds)
        metrics.inc("sched.tasks_completed")
        metrics.observe("sched.task_queue_seconds", queue_seconds)
        metrics.observe("sched.task_run_seconds", outcome.run_seconds)
        telemetry = outcome.telemetry
        if telemetry:
            metrics.observe("resource.task_cpu_seconds",
                            telemetry.get("cpu_seconds", 0.0))
            metrics.observe("resource.task_max_rss_kb",
                            telemetry.get("max_rss_kb", 0))
            metrics.observe("resource.task_gc_pause_seconds",
                            telemetry.get("gc_pause_seconds", 0.0))
            metrics.observe("resource.task_gc_collections",
                            telemetry.get("gc_collections", 0))
        _trace.emit(
            "sched.task.done", trace_id=task.trace_id,
            index=task.index, shard_kind=task.kind, key=task.key,
            start=task.start, stop=task.stop, attempt=outcome.attempt,
            sessions=len(outcome.store), worker=outcome.worker,
            run_seconds=outcome.run_seconds, queue_seconds=queue_seconds,
            **(telemetry or {}),
        )

    def _retry(self, outcome: TaskOutcome, cycle: int, delayed: List,
               metrics) -> List:
        task, attempt = outcome.task, outcome.attempt
        if attempt >= MAX_TASK_ATTEMPTS:
            raise SchedulerError(
                f"task {task.index} ({task.kind}:{task.key}:{task.start}) "
                f"failed {attempt} attempt(s); last error: {outcome.error}"
            )
        backoff = RETRY_BACKOFF_COLLECTS * (2 ** (attempt - 1))
        metrics.inc("sched.tasks_retried")
        _trace.emit(
            "sched.task.retry", trace_id=task.trace_id,
            index=task.index, attempt=attempt + 1, error=str(outcome.error),
        )
        return delayed + [(cycle + backoff, task, attempt + 1)]

# -- scheduled generation ------------------------------------------------------


def _adopt_and_release(builder, outcomes: List[TaskOutcome], metrics) -> None:
    """Adopt every outcome's shard payload in index order, dropping each
    once merged.

    The builder keeps the adopted column arrays as chunks and ``build()``
    frees each column's chunks as it concatenates them, so with no shard
    payload left alive the rows exist once, not twice, while the merged
    columns form (DESIGN §6c).
    """
    for outcome in outcomes:
        payload, outcome.store = outcome.store, None
        merge_watch = stopwatch()
        builder.adopt_store(payload)
        metrics.observe("sched.task_merge_seconds", merge_watch.elapsed())


def generate_scheduled(
    config=None,
    *,
    backend: Union[str, Backend, None] = None,
    workers: int = 1,
):
    """Generate the sharded trace by draining the plan's shards through a
    backend.

    The store is byte-identical for every backend and worker count:
    shards draw from named rng streams and merge in task index order.
    ``backend`` is a name (``inline`` / ``pool``), a :class:`Backend`
    instance, or None for inline at one worker and the pool above that.
    """
    from repro.workload.config import ScenarioConfig
    from repro.workload.shards import _plan_for

    config = config or ScenarioConfig()
    workers = max(1, int(workers))
    backend_obj = backend if isinstance(backend, Backend) \
        else make_backend(backend or default_backend(workers), workers=workers)

    metrics = get_metrics()
    with metrics.span("generate"):
        with metrics.span("plan"):
            plan = _plan_for(config)
        shards = plan.shards
        tasks = [
            ShardTask(index=i, kind=shard.kind, key=shard.key,
                      start=shard.start, stop=shard.stop)
            for i, shard in enumerate(shards)
        ]
        metrics.gauge_set("shards.count", len(shards))
        metrics.gauge_set("shards.workers", workers)
        _trace.emit("sched.trace.built", tasks=len(tasks),
                    backend=backend_obj.name, workers=workers)
        tracer = _trace.get_tracer()
        want_trace = tracer is not None
        emit_watch = stopwatch()
        with metrics.span("emit"):
            outcomes = Scheduler(backend_obj, SchedulerConfig(workers)).run(
                tasks, config, want_trace
            )
        emit_wall = emit_watch.elapsed()
        # Fold worker-side metrics and trace events in task-index order —
        # the same total order for every backend and pool size, which is
        # what keeps the merged registry and trace worker-count-invariant
        # (see workload/shards.py, whose pool this scheduler replaced).
        for outcome in outcomes:
            if outcome.metrics:
                metrics.merge(outcome.metrics, span_prefix="generate/emit")
            if want_trace and outcome.events:
                task = outcome.task
                tracer.fold(outcome.events, shard={
                    "index": task.index, "kind": task.kind, "key": task.key,
                    "start": task.start, "stop": task.stop,
                })
        busy = sum(
            cell["wall"] for path, cell in metrics.spans.items()
            if path.startswith("generate/emit/shard/")
        )
        slots = min(workers, max(len(shards), 1))
        metrics.gauge_set(
            "shards.queue_wait_seconds", max(0.0, emit_wall * slots - busy)
        )
        with metrics.span("merge"):
            # Merge into a rows-free fork so the cached plan stays reusable.
            builder = plan.gen.builder.fork_tables()
            _adopt_and_release(builder, outcomes, metrics)
            merged = builder.build()
        _trace.emit("generate.merged", shards=len(shards),
                    workers=workers, sessions=len(merged))
    return plan.gen._finalize(merged)
