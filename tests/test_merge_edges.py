"""Edge cases for the merge layers: stores, metrics, traces.

``SessionStore.merge`` remaps interned ids when combining stores whose
string tables diverged; ``Metrics.merge`` / ``Tracer.fold`` are the
shard-fold discipline.  These tests pin the degenerate shapes the happy
path never exercises: empty inputs, single-shard identity, fully
disjoint tables, overlapping post-fork tables, out-of-order folds, and
multi-step associativity.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import Metrics
from repro.obs.trace import Tracer, group_by_trace, strip_volatile
from repro.store.records import SessionRecord
from repro.store.store import SessionStore, StoreBuilder


def fingerprint(store: SessionStore) -> tuple:
    """Full content identity of a store (column bytes + tables + scripts)."""
    columns = (
        store.start_time, store.duration, store.honeypot, store.protocol,
        store.client_ip, store.client_asn, store.client_country,
        store.n_attempts, store.login_success, store.script_id,
        store.password_id, store.username_id, store.close_reason,
        store.version_id,
    )
    return (
        tuple(np.asarray(c).tobytes() for c in columns),
        tuple(store.hash_ids),
        tuple(store.honeypots.values()),
        tuple(store.countries.values()),
        tuple(store.passwords.values()),
        tuple(store.usernames.values()),
        tuple(store.hashes.values()),
        tuple(store.versions.values()),
        tuple((s.commands, s.uris) for s in store.scripts),
    )


def _record(i: int, honeypot: str, country: str, **kw) -> SessionRecord:
    defaults = dict(
        start_time=float(i * 600), duration=10.0, honeypot_id=honeypot,
        protocol="ssh", client_ip=1000 + i, client_asn=i,
        client_country=country, n_login_attempts=1, login_success=True,
    )
    defaults.update(kw)
    return SessionRecord(**defaults)


def _store(*records: SessionRecord) -> SessionStore:
    builder = StoreBuilder()
    for record in records:
        builder.append(record)
    return builder.build()


class TestStoreMergeEdges:
    def test_merge_of_nothing_is_an_empty_store(self):
        merged = SessionStore.merge([])
        assert len(merged) == 0
        assert merged.honeypots.values() == []

    def test_merge_of_empty_stores_is_empty(self):
        merged = SessionStore.merge([_store(), _store()])
        assert len(merged) == 0

    def test_empty_plus_nonempty_keeps_content(self):
        full = _store(
            _record(0, "pot-a", "US", password="alpha",
                    commands=("ls",), file_hashes=("h1",)),
            _record(1, "pot-b", "DE"),
        )
        for order in ([_store(), full], [full, _store()]):
            merged = SessionStore.merge(order)
            assert fingerprint(merged) == fingerprint(full)

    def test_disjoint_tables_concatenate_in_first_seen_order(self):
        a = _store(_record(0, "pot-a", "US", password="alpha",
                           file_hashes=("h1",)))
        b = _store(_record(1, "pot-b", "DE", password="beta",
                           file_hashes=("h2",)))
        merged = SessionStore.merge([a, b])
        assert merged.honeypots.values() == ["pot-a", "pot-b"]
        assert merged.passwords.values() == ["alpha", "beta"]
        assert merged.hashes.values() == ["h1", "h2"]
        pots = [merged.honeypots.value_of(int(p)) for p in merged.honeypot]
        assert pots == ["pot-a", "pot-b"]

    def test_overlapping_post_fork_tables_remap_to_shared_ids(self):
        base = StoreBuilder()
        base.append(_record(0, "pot-a", "US", password="alpha"))
        left = base.fork_tables()
        right = base.fork_tables()
        # Both forks intern new strings beyond the shared prefix; "pot-c"
        # gets a different id in each fork, "pot-a" keeps the shared one.
        left.append(_record(1, "pot-b", "DE", password="beta"))
        left.append(_record(2, "pot-c", "FR", password="alpha"))
        right.append(_record(3, "pot-c", "FR", password="gamma"))
        right.append(_record(4, "pot-a", "US", password="beta"))

        merged = SessionStore.merge([base.build(), left.build(), right.build()])
        assert len(merged) == 5
        pots = [merged.honeypots.value_of(int(p)) for p in merged.honeypot]
        assert pots == ["pot-a", "pot-b", "pot-c", "pot-c", "pot-a"]
        # The two forks' "pot-c" rows collapse onto one interned id.
        assert int(merged.honeypot[2]) == int(merged.honeypot[3])
        assert int(merged.honeypot[0]) == int(merged.honeypot[4])
        passwords = [merged.passwords.value_of(int(p))
                     for p in merged.password_id]
        assert passwords == ["alpha", "beta", "alpha", "gamma", "beta"]

    def test_merge_then_merge_is_associative(self):
        a = _store(_record(0, "pot-a", "US", password="alpha",
                           commands=("ls",), file_hashes=("h1",)))
        b = _store(_record(1, "pot-b", "DE", password="beta",
                           uris=("http://x/a",), commands=("wget",),
                           file_hashes=("h2", "h1")))
        c = _store(_record(2, "pot-c", "FR", password="alpha",
                           file_hashes=("h3",)))
        flat = SessionStore.merge([a, b, c])
        left_nested = SessionStore.merge([SessionStore.merge([a, b]), c])
        right_nested = SessionStore.merge([a, SessionStore.merge([b, c])])
        assert fingerprint(flat) == fingerprint(left_nested)
        assert fingerprint(flat) == fingerprint(right_nested)

    def test_merge_does_not_mutate_inputs(self):
        a = _store(_record(0, "pot-a", "US", file_hashes=("h1",)))
        b = _store(_record(1, "pot-b", "DE", file_hashes=("h2",)))
        before_a, before_b = fingerprint(a), fingerprint(b)
        SessionStore.merge([a, b])
        assert fingerprint(a) == before_a
        assert fingerprint(b) == before_b


def _worker_trace(shard: int, n: int = 3) -> Tracer:
    """A worker-side tracer with ``n`` events on its own trace id."""
    tracer = Tracer()
    for j in range(n):
        tracer.emit(
            "honeypot.session.connect" if j == 0 else "honeypot.command.input",
            trace_id=f"session:{shard}",
            sim_time=100.0 * shard + j,
            step=j,
        )
    return tracer


class TestTracerFoldEdges:
    def test_fold_of_empty_shard_is_a_no_op(self):
        parent = Tracer()
        parent.emit("generator.block", trace_id="t0", sim_time=0.0)
        assert parent.fold([]) == 0
        assert len(parent) == 1
        # The next emit continues the sequence uninterrupted.
        assert parent.emit("generator.block", trace_id="t0",
                           sim_time=1.0)["seq"] == 1

    def test_single_shard_fold_is_identity_modulo_volatile(self):
        worker = _worker_trace(0)
        parent = Tracer()
        shard = {"index": 0, "kind": "pool", "key": "shard-0"}
        assert parent.fold(worker.to_list(), shard=shard) == 3
        stripped = [strip_volatile(e) for e in parent.to_list()]
        assert stripped == [strip_volatile(e) for e in worker.to_list()]
        # seq is re-stamped in fold order and provenance attached.
        assert [e["seq"] for e in parent.to_list()] == [0, 1, 2]
        assert all(e["shard"] == shard for e in parent.to_list())

    def test_fold_does_not_mutate_worker_events(self):
        worker = _worker_trace(0)
        before = [dict(e) for e in worker.to_list()]
        parent = Tracer()
        parent.emit("generator.block", trace_id="pad", sim_time=0.0)
        parent.fold(worker.to_list(), shard={"index": 0, "kind": "pool",
                                             "key": "shard-0"})
        assert worker.to_list() == before  # no seq re-stamp, no shard key

    def test_out_of_order_shard_folds_keep_per_trace_sequences(self):
        def folded(order):
            shards = [_worker_trace(i) for i in range(3)]
            parent = Tracer()
            for i in order:
                parent.fold(shards[i].to_list(),
                            shard={"index": i, "kind": "pool",
                                   "key": f"shard-{i}"})
            return parent.to_list()

        forward = folded((0, 1, 2))
        scrambled = folded((2, 0, 1))
        # Global seq is a valid total order either way...
        for events in (forward, scrambled):
            assert [e["seq"] for e in events] == list(range(9))
        # ...and the per-trace stripped sequences are fold-order-invariant.
        by_trace = {
            trace: [strip_volatile(e) for e in events]
            for trace, events in group_by_trace(forward).items()
        }
        for trace, events in group_by_trace(scrambled).items():
            assert [strip_volatile(e) for e in events] == by_trace[trace]

    def test_fold_respects_capacity_and_counts_drops(self):
        parent = Tracer(capacity=2)
        assert parent.fold(_worker_trace(0).to_list()) == 3
        assert len(parent) == 2
        assert parent.dropped == 1
        assert parent.emitted == 3


def _shard_metrics(counters=(), gauges=(), samples=(), spans=()) -> Metrics:
    m = Metrics()
    for name, value in counters:
        m.inc(name, value)
    for name, value in gauges:
        m.gauge_set(name, value)
    for name, value in samples:
        m.observe(name, value)
    # Spans merged from dict form: exact values, no wall clock involved.
    m.merge({"spans": {path: dict(cell) for path, cell in spans}})
    return m


_SHARDS = (
    dict(counters=[("store.sessions_appended", 5), ("cache.hits", 1)],
         gauges=[("farm.pots.active", 3.0)],
         samples=[("session.duration", 1.0), ("session.duration", 4.0)],
         spans=[("generate", {"count": 1, "wall": 1.5, "cpu": 0.5})]),
    dict(counters=[("store.sessions_appended", 7)],
         gauges=[("farm.pots.active", 8.0)],
         samples=[("session.duration", 2.0)],
         spans=[("generate", {"count": 1, "wall": 0.25, "cpu": 0.125}),
                ("generate/merge", {"count": 2, "wall": 0.5, "cpu": 0.25})]),
    dict(counters=[("cache.hits", 2), ("cache.misses", 1)],
         gauges=[("farm.pots.active", 6.0)],
         samples=[("session.duration", 3.0), ("session.duration", 0.5)],
         spans=[("generate", {"count": 1, "wall": 0.75, "cpu": 0.25})]),
)


class TestMetricsMergeEdges:
    def test_merge_of_fresh_registry_is_identity(self):
        m = _shard_metrics(**_SHARDS[0])
        before = m.to_dict()
        m.merge(Metrics())
        assert m.to_dict() == before

    def test_merge_into_fresh_registry_equals_to_dict(self):
        m = _shard_metrics(**_SHARDS[1])
        fresh = Metrics()
        fresh.merge(m)
        assert fresh.to_dict() == m.to_dict()

    def test_dict_form_merges_like_the_object_form(self):
        a1 = _shard_metrics(**_SHARDS[0])
        a1.merge(_shard_metrics(**_SHARDS[1]))
        a2 = _shard_metrics(**_SHARDS[0])
        a2.merge(_shard_metrics(**_SHARDS[1]).to_dict())
        assert a1.to_dict() == a2.to_dict()

    def test_out_of_order_merges_agree(self):
        def folded(order):
            out = Metrics()
            for i in order:
                out.merge(_shard_metrics(**_SHARDS[i]))
            return out

        forward = folded((0, 1, 2))
        scrambled = folded((2, 0, 1))
        assert forward.counters == scrambled.counters
        assert forward.gauges == scrambled.gauges  # gauge_max: order-free
        assert forward.spans == scrambled.spans  # exact binary fractions
        # Uncapped histograms concatenate: same sample multiset, and the
        # derived statistics agree exactly.
        fh = forward.histograms["session.duration"]
        sh = scrambled.histograms["session.duration"]
        assert sorted(fh.values) == sorted(sh.values)
        assert (fh.count, fh.total, fh.max) == (sh.count, sh.total, sh.max)
        assert fh.percentile(50) == sh.percentile(50)

    def test_span_prefix_reroots_worker_timings(self):
        parent = Metrics()
        parent.merge(_shard_metrics(**_SHARDS[1]), span_prefix="workers/0")
        assert set(parent.spans) == {"workers/0/generate",
                                     "workers/0/generate/merge"}
        assert parent.spans["workers/0/generate"]["count"] == 1
