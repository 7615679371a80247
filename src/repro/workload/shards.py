"""Sharded, multiprocess trace generation.

:class:`~repro.workload.generator.TraceGenerator` builds the whole plan;
:class:`ShardPlan` only lays it out.  The scenario is partitioned into
shards keyed by (traffic unit, range): realised campaigns (grouped when
small, split at day positions when large), slices of the singleton-writer
pool, and day ranges of every background category.  Each shard draws from
ONE named
:class:`~repro.simulation.rng.RngStream` derived from its key
(``no_cred.r17``, ``campaigns.emit.<cid>`` per campaign of a group,
``campaigns.emit.<cid>.p<start>``, ``singletons.r<start>``), drawing each
column once over the whole shard, so a shard's output depends only on its
key — never on which worker runs it or in what order.  The shard list is a
pure function of the config; see DESIGN §6h for the stream layout.
Workers emit into builders forked from the plan's base tables
(:meth:`StoreBuilder.fork_tables`) and return rows plus table tails
(:class:`ShardPayload`: each table's fork mark and only the entries the
shard interned after it), never a copy of the tables the parent holds.
The parent adopts them back in shard order
(:meth:`StoreBuilder.adopt_store`), interning the tails and remapping
their ids, so the merged store is bit-identical for every worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import get_metrics, use_metrics
from repro.obs import trace as _trace
from repro.store.store import ShardPayload
from repro.workload.config import ScenarioConfig
from repro.workload.emit import SessionEmitter
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
    """The shard layout over a finished plan (``gen``), drawing nothing.

    Built once per config in the parent process; under a fork start method
    workers inherit it copy-on-write, under spawn each worker rebuilds it
    (identically — the plan only uses named rng streams).
    """

    def __init__(self, gen: TraceGenerator):
        self.gen = gen
        self.campaigns_by_id = {r.spec.campaign_id: r for r in gen.realized}
        self.shards = self._enumerate()

    def _shard_target(self) -> int:
        """Adaptive per-shard session target (see module constants).

        Derived from the planned totals only, so it is identical in every
        process for a given config.
        """
        total = sum(r.total_sessions for r in self.gen.realized)
        total += len(self.gen.writers)  # one-session floor per writer
        total += int(sum(int(b.sum()) for b in self.gen.budgets.values()))
        return min(max(total // _TARGET_SHARDS, _MIN_SHARD_SESSIONS),
                   _MAX_SHARD_SESSIONS)

    def _enumerate(self) -> List[Shard]:
        """Shards in emission order, coarsened to ``_shard_target``.

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

        n_writers = len(self.gen.writers)
        writer_chunk = max(1, min(n_writers, target))
        for lo in range(0, n_writers, writer_chunk):
            shards.append(Shard(
                "singletons", "singletons",
                lo, min(lo + writer_chunk, n_writers),
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


def plan_digest(plan: ShardPlan) -> str:
    """sha256 over everything a plan hands to emission.

    Covers the population columns, the target-table CSR, the client AS
    registry, the per-category day buckets, each realised campaign's
    pool, pool weights, pot subset, schedule, members by day and script
    id, the singleton writers' plan and the background budgets.  Equal digests mean equal plans; a store
    digest that moves while this one holds points at emission, not at the
    plan.
    """
    h = hashlib.sha256()

    def put(tag: str, a) -> None:
        a = np.ascontiguousarray(a)
        h.update(f"{tag}:{a.dtype.str}:{a.shape}:".encode())
        h.update(a.tobytes())

    gen = plan.gen
    pop = gen.population
    for col in ("ip", "country", "asn", "roles", "first_day", "n_days",
                "rate", "breadth"):
        put(f"pop.{col}", getattr(pop, col))
    table = gen.target_table
    for col in ("pots", "offsets", "keys"):
        put(f"targets.{col}", getattr(table, col))
    for record in gen.registry.records():
        h.update(repr((record.asn, record.country, record.network_type.value,
                       record.name, [str(p) for p in record.prefixes])).encode())
    for cat in sorted(gen.day_buckets):
        for day, bucket in enumerate(gen.day_buckets[cat]):
            put(f"day.{cat}.{day}", np.asarray(bucket, dtype=np.int64))
    for r in gen.realized:
        cid = r.spec.campaign_id
        put(f"c.{cid}.pool", r.pool)
        put(f"c.{cid}.pool_weights", r.pool_weights)
        put(f"c.{cid}.pot_subset", r.pot_subset)
        days = sorted(r.schedule)
        put(f"c.{cid}.schedule", np.array(
            [(d, r.schedule[d]) for d in days], dtype=np.int64))
        for day in sorted(r.members_by_day):
            put(f"c.{cid}.members.{day}",
                np.asarray(r.members_by_day[day], dtype=np.int64))
        put(f"c.{cid}.script_id", np.int64(r.script_id))
    put("writers", gen.writers)
    put("writer_pots", gen.writer_pots)
    put("writer_sessions", gen.writer_sessions)
    for kind in sorted(gen.budgets):
        put(f"budget.{kind}", gen.budgets[kind])
    return h.hexdigest()


def emit_shard(plan: ShardPlan, shard: Shard) -> ShardPayload:
    """Emit one shard into a builder forked from the plan's tables; return
    its rows plus table tails."""
    metrics = get_metrics()
    with metrics.span(f"shard/{shard.kind}"):
        payload = _emit_shard_body(plan, shard)
    metrics.inc("shards.emitted")
    metrics.inc(f"shards.sessions.{shard.kind}", len(payload))
    metrics.observe("shards.sessions_per_shard", len(payload))
    return payload


def _emit_shard_body(plan: ShardPlan, shard: Shard) -> ShardPayload:
    gen = plan.gen
    builder = gen.builder.fork_tables()
    emitter = SessionEmitter(builder)
    kind, start, stop = shard.kind, shard.start, shard.stop
    if kind == "campaign":
        r = plan.campaigns_by_id[shard.key]
        gen.engine.emit_units([(r, sorted(r.schedule)[start:stop],
                                gen.engine.stream_for(r, start))], emitter)
    elif kind == "campaign_group":
        gen.engine.emit_units([(r, sorted(r.schedule), gen.engine.stream_for(r))
                               for r in gen.realized[start:stop]], emitter)
    elif kind == "singletons":
        gen.emit_singletons(emitter, start, stop)
    elif kind in BACKGROUND:
        gen.emit_background(kind, emitter, start, stop)
    else:
        raise ValueError(f"unknown shard kind: {kind}")
    return builder.payload()


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
    travels back with the payload so the parent can merge worker-side
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
                payload = emit_shard(plan, shard)
            events = tracer.to_list()
        else:
            payload = emit_shard(plan, shard)
            events = None
    return payload, metrics.to_dict(), events
