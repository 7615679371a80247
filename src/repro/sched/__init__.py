"""Shard scheduling over two execution backends.

Every generation — :func:`repro.generate` and the CLI alike — drains
the shards of :mod:`repro.workload.shards` through this package, which
splits the work into two seams:

* :mod:`repro.sched.backends` — where a :class:`ShardTask` runs:
  :class:`InlineBackend` (the in-process golden path) or
  :class:`PoolBackend` (a self-healing multiprocess pool that keeps
  ``workers`` processes from open to close);
* :mod:`repro.sched.scheduler` — the :class:`Scheduler` policy loop
  (index-order submission, bounded retry with backoff, heartbeats with
  stale-worker alerts, the stall guard) and :func:`generate_scheduled`,
  the backend-parametrised generation entry point.

Scheduling never changes the output: stores are byte-identical across
backends, worker counts and submission orders (``tests/test_sched.py``).
"""

from repro.sched.backends import (
    BACKEND_NAMES,
    Backend,
    BackendError,
    InlineBackend,
    PoolBackend,
    ShardTask,
    TaskOutcome,
    default_backend,
    make_backend,
)
from repro.sched.dashboard import TopDashboard, WorkerRow
from repro.sched.scheduler import (
    Scheduler,
    SchedulerConfig,
    SchedulerError,
    generate_scheduled,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "InlineBackend",
    "PoolBackend",
    "Scheduler",
    "SchedulerConfig",
    "SchedulerError",
    "ShardTask",
    "TaskOutcome",
    "TopDashboard",
    "WorkerRow",
    "default_backend",
    "generate_scheduled",
    "make_backend",
]
