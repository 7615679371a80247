"""Backend conformance suite for the task-trace scheduler (repro.sched).

The contract under test: scheduling is output-neutral.  Whatever backend
runs the shards, however many workers it uses, in whatever order tasks
are submitted, and however many attempts a task needs, the merged store is
byte-identical to the in-process golden path (sha256 over the persisted
npz content, the same identity PRs 3/5 checked for worker counts).
"""

import time
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sched.scheduler as scheduler
import repro.workload.shards as shards
from repro.obs.resources import worker_heartbeat
from repro.sched import (
    InlineBackend,
    PoolBackend,
    Scheduler,
    SchedulerError,
    ShardTask,
    TaskOutcome,
    generate_scheduled,
    make_backend,
)
from repro.store.store import StoreBuilder
from repro.workload.config import ScenarioConfig
from repro.workload.shards import ShardPlan

#: Small enough to generate in a couple of seconds; 22 shards at 1/80000.
CONFIG = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)


@pytest.fixture(scope="module")
def plan() -> ShardPlan:
    shards._PLAN = None
    return shards._plan_for(CONFIG)


@pytest.fixture(scope="module")
def reference_digest() -> str:
    """The golden path: InlineBackend, one worker."""
    dataset = generate_scheduled(CONFIG, backend="inline", workers=1)
    return dataset.store.content_digest()


# -- backend conformance: byte-identical stores --------------------------------


class TestBackendConformance:
    @pytest.mark.parametrize("backend,workers", [
        ("pool", 1), ("pool", 2), ("pool", 4),
    ])
    def test_store_byte_identical_to_inline(self, backend, workers,
                                            reference_digest):
        dataset = generate_scheduled(CONFIG, backend=backend,
                                     workers=workers)
        assert dataset.store.content_digest() == reference_digest

    def test_make_backend_spellings(self):
        assert isinstance(make_backend("inline"), InlineBackend)
        assert isinstance(make_backend("pool", workers=3), PoolBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_pool_keeps_its_capacity_until_close(self, reference_digest):
        class CountingPool(PoolBackend):
            """Records the live worker count each round and at close."""

            sizes: set = set()

            def collect(self, timeout: float = 0.25):
                self.sizes.add(self.workers)
                return super().collect(timeout)

            def close(self):
                self.sizes.add(self.workers)
                super().close()

        backend = CountingPool(workers=2)
        dataset = generate_scheduled(CONFIG, backend=backend, workers=2)
        assert dataset.store.content_digest() == reference_digest
        assert backend.sizes == {2}


# -- scheduler policy: retry, stall guard --------------------------------------


class FlakyBackend(InlineBackend):
    """Inline execution that reports errors for one task's first N tries."""

    name = "flaky"

    def __init__(self, fail_index: int, fail_times: int = 1):
        super().__init__()
        self.fail_index = fail_index
        self.fail_times = fail_times

    def collect(self, timeout: float = 0.25):
        if self._pending and self.fail_times \
                and self._pending[0][0].index == self.fail_index:
            task, attempt = self._pending.pop(0)
            self.fail_times -= 1
            return [TaskOutcome(task=task, attempt=attempt, worker="flaky",
                                error="injected failure")]
        return super().collect(timeout)


class TestSchedulerPolicy:
    def test_retry_recovers_from_task_error(self, monkeypatch,
                                            reference_digest):
        from repro.obs import use_metrics

        monkeypatch.setattr(scheduler, "RETRY_BACKOFF_COLLECTS", 1)
        with use_metrics() as metrics:
            dataset = generate_scheduled(
                CONFIG, backend=FlakyBackend(fail_index=2),
            )
        assert dataset.store.content_digest() == reference_digest
        assert metrics.counter("sched.tasks_retried") == 1

    def test_bounded_retry_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(scheduler, "MAX_TASK_ATTEMPTS", 2)
        monkeypatch.setattr(scheduler, "RETRY_BACKOFF_COLLECTS", 1)
        with pytest.raises(SchedulerError, match="failed 2 attempt"):
            generate_scheduled(
                CONFIG, backend=FlakyBackend(fail_index=2, fail_times=99),
            )

    def test_pool_worker_death_is_retried(self, tmp_path, monkeypatch,
                                          reference_digest):
        """Real fault injection: a worker process hard-exits mid-task
        (exactly once); the scheduler detects the death, retries the task
        on the healed pool, and the output is unchanged."""
        from repro.obs import use_metrics

        monkeypatch.setenv("REPRO_SCHED_FAIL_TASK", "3")
        monkeypatch.setenv("REPRO_SCHED_FAIL_ONCE_DIR", str(tmp_path))
        backend = PoolBackend(workers=2)
        with use_metrics() as metrics:
            dataset = generate_scheduled(CONFIG, backend=backend,
                                         workers=2)
        assert dataset.store.content_digest() == reference_digest
        assert backend.deaths == 1
        # The dying worker loses the task it was executing plus anything
        # it had picked up or finished-but-not-flushed; each is retried.
        # Tasks still unread in its pipe are recovered without a retry.
        retried = metrics.counter("sched.tasks_retried")
        assert 1 <= retried <= PoolBackend.depth
        assert (tmp_path / "failed-3").exists()

    def test_task_accounting_counters(self, plan):
        from repro.obs import use_metrics

        with use_metrics() as metrics:
            generate_scheduled(CONFIG, backend="inline")
        n = len(plan.shards)
        assert metrics.counter("sched.tasks_submitted") == n
        assert metrics.counter("sched.tasks_completed") == n


class ScriptedBeats(InlineBackend):
    """Runs no shard: each collect sleeps, then reports one scripted round
    (``(sleep_s, beat or None, finish a task)``) for worker ``pool-0``."""

    name = "scripted"

    def __init__(self, rounds):
        super().__init__()
        self.rounds = list(rounds)
        self.beats = []

    def collect(self, timeout: float = 0.25):
        sleep_s, beat, finish = self.rounds.pop(0)
        time.sleep(sleep_s)
        self.beats = [] if beat is None else [
            worker_heartbeat("pool-0", beat=beat, last_index=0)]
        if not finish:
            return []
        task, attempt = self._pending.pop(0)
        return [TaskOutcome(task=task, attempt=attempt, worker="pool-0",
                            store=[])]

    def heartbeats(self):
        beats, self.beats = self.beats, []
        return beats


class TestStaleWorkerAlerts:
    def test_one_alert_per_silent_episode_and_rearm(self, monkeypatch):
        from repro.obs import (RunLedger, Tracer, use_ledger, use_metrics,
                               use_tracer)

        monkeypatch.setattr(scheduler, "HEARTBEAT_STALE_SECONDS", 0.05)
        silent = 0.1
        rounds = [
            (0, 1, True),           # a fresh beat, one task done
            (silent, None, False),  # silent past the threshold: alert 1
            (silent, None, False),  # same episode: no second alert
            (0, 2, True),           # a fresh beat re-arms the worker
            (silent, 2, False),     # a replayed beat is not fresh: alert 2
            (0, 3, True),
        ]
        tasks = [ShardTask(index=i, kind="k", key="k", start=i, stop=i + 1)
                 for i in range(3)]
        ledger, tracer = RunLedger(), Tracer()
        with use_metrics() as metrics, use_tracer(tracer), \
                use_ledger(ledger):
            outcomes = Scheduler(ScriptedBeats(rounds)).run(tasks, CONFIG)
        assert [o.task.index for o in outcomes] == [0, 1, 2]
        assert metrics.counter("sched.heartbeat.stale") == 2
        events = [e for e in tracer.to_list()
                  if e["kind"] == "sched.heartbeat.stale"]
        assert [e["data"]["worker"] for e in events] == ["pool-0"] * 2
        alerts = [r for r in ledger.to_records()
                  if r["record"] == "alert"]
        assert [a["kind"] for a in alerts] == ["stale-worker"] * 2
        assert all(a["data"]["worker"] == "pool-0" for a in alerts)


# -- memory contract: one copy of the rows at merge time -------------------------


class TestMergeReleasesShardStores:
    @pytest.mark.parametrize("backend", ["inline", "pool"])
    def test_adopted_stores_are_dead_when_the_merge_builds(
            self, backend, monkeypatch, reference_digest):
        """Every shard store the merge adopts is freed before the merged
        builder concatenates its columns, so the rows never exist twice."""
        adopted = []      # weakrefs to every store passed to adopt_store
        mergers = []      # the builders that adopted them
        live_at_build = []
        real_adopt, real_build = StoreBuilder.adopt_store, StoreBuilder.build

        def adopt_store(self, store):
            adopted.append(weakref.ref(store))
            if not any(b is self for b in mergers):
                mergers.append(self)
            real_adopt(self, store)

        def build(self):
            if any(b is self for b in mergers):
                live_at_build.append(sum(ref() is not None for ref in adopted))
            return real_build(self)

        monkeypatch.setattr(StoreBuilder, "adopt_store", adopt_store)
        monkeypatch.setattr(StoreBuilder, "build", build)
        dataset = generate_scheduled(CONFIG, backend=backend, workers=1)
        assert dataset.store.content_digest() == reference_digest
        assert len(adopted) > 1
        assert live_at_build == [0]


# -- submission-order invariance (property) ------------------------------------


class TestSubmissionOrderInvariance:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_permuted_submission_never_changes_store(
            self, data, plan, reference_digest):
        tasks = [
            ShardTask(index=i, kind=shard.kind, key=shard.key,
                      start=shard.start, stop=shard.stop)
            for i, shard in enumerate(plan.shards)
        ]
        order = data.draw(st.permutations(tasks))
        outcomes = Scheduler(InlineBackend()).run(order, CONFIG)
        assert [o.task.index for o in outcomes] == list(range(len(tasks)))
        builder = plan.gen.builder.fork_tables()
        for outcome in outcomes:
            builder.adopt_store(outcome.store)
        assert builder.build().content_digest() == reference_digest
