"""Sharded, multiprocess trace generation.

The scenario is partitioned into shards keyed by (traffic unit, range):
realised campaigns (grouped when small, split at day positions when large),
slices of the singleton-writer pool, and day ranges of every background
category.  Each shard draws from ONE named
:class:`~repro.simulation.rng.RngStream` derived from its key
(``no_cred.r17``, ``campaigns.emit.<cid>`` per campaign of a group,
``campaigns.emit.<cid>.p<start>``, ``singletons.r<start>``), drawing each
column once over the whole shard, so a shard's output depends only on its
key — never on which worker runs it or in what order.  The shard list is a
pure function of the config; see DESIGN §6h for the stream layout.
Workers emit into builders forked from the plan's base tables
(:meth:`StoreBuilder.fork_tables`) and return frozen stores; the parent
adopts them back in shard order (:meth:`StoreBuilder.adopt_store`),
remapping any ids a shard interned beyond the shared prefix. The merged
store is therefore bit-identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.obs import get_metrics, use_metrics
from repro.obs import trace as _trace
from repro.store.store import SessionStore
from repro.workload.blocks import make_emitter
from repro.workload.config import ScenarioConfig
from repro.workload.dataset import HoneyfarmDataset
from repro.workload.generator import BACKGROUND, TraceGenerator

#: Bounds for the adaptive per-shard session target: coarse enough that
#: per-shard fork/merge overhead stays invisible, fine enough that a pool
#: still has shards to balance.  The target itself is derived from the
#: *planned* session total only — never from the worker count — so the
#: shard list remains a pure function of the config.
_MIN_SHARD_SESSIONS = 256
_MAX_SHARD_SESSIONS = 1 << 18
_TARGET_SHARDS = 48


@dataclass(frozen=True)
class Shard:
    """One independently emittable slice of the scenario.

    ``kind`` is ``"campaign"``, ``"singletons"`` or a background category
    key; ``key`` carries the campaign id for campaign shards. ``start`` /
    ``stop`` bound a half-open range of schedule positions (campaigns),
    writer slots (singletons) or absolute days (background).
    """

    kind: str
    key: str
    start: int
    stop: int


class ShardPlan:
    """Everything shared by all shards: realised campaigns, the singleton
    writers' plan and the generator's background budgets.

    Built once per config in the parent process; under a fork start method
    workers inherit it copy-on-write, under spawn each worker rebuilds it
    (identically — construction only uses named rng streams).
    """

    def __init__(self, gen: TraceGenerator):
        self.gen = gen
        gen._build_day_buckets()
        gen._realize_campaigns()
        self.campaigns_by_id = {r.spec.campaign_id: r for r in gen.realized}

        self.writers = gen._singleton_writers(gen.rng.child("singletons"))
        self.writer_pots, self.writer_sessions = gen._singleton_plan(
            gen.rng.child("singletons.plan"), self.writers)
        gen._plan_background(int(self.writer_sessions.sum()))
        self.shards = self._enumerate()

    def _shard_target(self) -> int:
        """Adaptive per-shard session target (see module constants).

        Derived from the planned totals only, so it is identical in every
        process for a given config.
        """
        total = sum(r.total_sessions for r in self.gen.realized)
        total += len(self.writers)  # one-session floor per writer
        total += int(sum(int(b.sum()) for b in self.gen.budgets.values()))
        return min(max(total // _TARGET_SHARDS, _MIN_SHARD_SESSIONS),
                   _MAX_SHARD_SESSIONS)

    def _enumerate(self) -> List[Shard]:
        """Shards in serial emission order, coarsened to ``_shard_target``.

        Every shard draws from one stream named by its key, so the
        boundaries chosen here are part of the draw order: they depend on
        the config alone, never on the worker count.  Consecutive small
        campaigns collapse into ``campaign_group`` shards (a realized-list
        index range, one stream per campaign); large campaigns split at
        day positions where the accumulated schedule crosses the target;
        background categories use greedy day ranges over their daily
        budgets.  Merge order equals enumeration order, so the merged
        store is byte-identical for every backend and worker count.
        """
        target = self._shard_target()
        shards: List[Shard] = []

        realized = self.gen.realized
        group_start: Optional[int] = None
        group_sessions = 0

        def close_group(stop: int) -> None:
            nonlocal group_start, group_sessions
            if group_start is not None:
                shards.append(Shard(
                    "campaign_group", f"{group_start}:{stop}",
                    group_start, stop,
                ))
                group_start = None
                group_sessions = 0

        for pos, r in enumerate(realized):
            if r.total_sessions >= target:
                close_group(pos)
                days = sorted(r.schedule)
                lo = 0
                acc = 0
                for j, day in enumerate(days):
                    acc += r.schedule[day]
                    if acc >= target and j + 1 < len(days):
                        shards.append(Shard(
                            "campaign", r.spec.campaign_id, lo, j + 1
                        ))
                        lo = j + 1
                        acc = 0
                if lo < len(days):
                    shards.append(Shard(
                        "campaign", r.spec.campaign_id, lo, len(days)
                    ))
                continue
            if group_start is None:
                group_start = pos
            group_sessions += r.total_sessions
            if group_sessions >= target:
                close_group(pos + 1)
        close_group(len(realized))

        writer_chunk = max(1, min(len(self.writers), target))
        for lo in range(0, len(self.writers), writer_chunk):
            shards.append(Shard(
                "singletons", "singletons",
                lo, min(lo + writer_chunk, len(self.writers)),
            ))

        n_days = self.gen.config.n_days
        for cat in BACKGROUND:
            budgets = self.gen.budgets[cat]
            lo = None
            acc = 0
            for day in range(n_days):
                n = int(budgets[day])
                if n <= 0 and lo is None:
                    continue
                if lo is None:
                    lo = day
                acc += n
                if acc >= target:
                    shards.append(Shard(cat, cat, lo, day + 1))
                    lo = None
                    acc = 0
            if lo is not None and acc > 0:
                shards.append(Shard(cat, cat, lo, n_days))
        return shards


def emit_shard(plan: ShardPlan, shard: Shard) -> SessionStore:
    """Emit one shard into a frozen store with tables forked from the plan."""
    metrics = get_metrics()
    with metrics.span(f"shard/{shard.kind}"):
        store = _emit_shard_body(plan, shard)
    metrics.inc("shards.emitted")
    metrics.inc(f"shards.sessions.{shard.kind}", len(store))
    metrics.observe("shards.sessions_per_shard", len(store))
    return store


def _emit_shard_body(plan: ShardPlan, shard: Shard) -> SessionStore:
    gen = plan.gen
    fork = gen.builder.fork_tables()
    emitter = make_emitter(fork)
    saved = (gen.builder, gen.emitter, gen.engine.emitter)
    gen.builder = fork
    gen.emitter = emitter
    gen.engine.emitter = emitter
    try:
        kind, start, stop = shard.kind, shard.start, shard.stop
        if kind == "campaign":
            campaign = plan.campaigns_by_id[shard.key]
            gen.engine.emit_range(
                campaign, sorted(campaign.schedule)[start:stop],
                gen.engine.stream_for(campaign, start),
            )
        elif kind == "campaign_group":
            for r in gen.realized[start:stop]:
                gen.engine.emit(r)
        elif kind == "singletons":
            gen._singletons_range(
                gen.rng.child(f"singletons.r{start}"),
                plan.writers[start:stop],
                plan.writer_pots[start:stop],
                plan.writer_sessions[start:stop],
            )
        elif kind in BACKGROUND:
            gen._background_range(kind, gen.rng.child(f"{kind}.r{start}"),
                                  start, stop)
        else:
            raise ValueError(f"unknown shard kind: {kind}")
    finally:
        gen.builder, gen.emitter, gen.engine.emitter = saved
    emitter.flush()
    return fork.build()


# One plan per process, keyed by config. Set in the parent before the pool
# is created so fork-started workers inherit it; spawn-started workers
# rebuild it on their first shard.
_PLAN: Optional[ShardPlan] = None


def _plan_for(config: ScenarioConfig) -> ShardPlan:
    global _PLAN
    if _PLAN is None or _PLAN.gen.config != config:
        _PLAN = ShardPlan(TraceGenerator(config))
    return _PLAN


def _emit_indexed(task: Tuple[ScenarioConfig, int, bool]):
    """Worker entry: emit one shard plus the metrics/trace it recorded.

    The shard is emitted under a fresh registry (plan construction, which a
    spawn-started worker redoes once, stays outside it), whose dict form
    travels back with the store so the parent can merge worker-side
    counters and stage timings in shard order.  With ``want_trace`` the
    shard also records under a fresh flight recorder whose event list
    travels back the same way — the ``want_trace`` flag rides in the task
    (not process state) so spawn-started workers honour it too.
    """
    config, index, want_trace = task
    plan = _plan_for(config)
    shard = plan.shards[index]
    with use_metrics() as metrics:
        if want_trace:
            with _trace.use_tracer(_trace.Tracer()) as tracer:
                tracer.emit(
                    "shard.emit",
                    trace_id=f"shard:{shard.kind}:{shard.key}:{shard.start}",
                    shard_kind=shard.kind, key=shard.key,
                    start=shard.start, stop=shard.stop,
                )
                store = emit_shard(plan, shard)
            events = tracer.to_list()
        else:
            store = emit_shard(plan, shard)
            events = None
    return store, metrics.to_dict(), events


def generate_sharded(
    config: Optional[ScenarioConfig] = None, workers: int = 1
) -> HoneyfarmDataset:
    """Generate the sharded trace with ``workers`` processes.

    The output is bit-identical for every ``workers`` value: each shard
    draws from its own named rng stream and shards merge in enumeration
    order, so scheduling cannot influence the result.

    Since the :mod:`repro.sched` redesign this is a thin wrapper over
    :func:`repro.sched.scheduler.generate_scheduled` — ``workers == 1``
    runs the in-process :class:`~repro.sched.backends.InlineBackend`,
    anything larger the multiprocess pool (the pool this module used to
    hard-wire).  Pick the backend explicitly through
    :func:`repro.api.generate`.
    """
    from repro.sched.scheduler import generate_scheduled

    return generate_scheduled(config, workers=workers)
