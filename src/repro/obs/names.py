"""The declared instrument-name registry.

Every metric counter, gauge, histogram, span path and trace-event kind the
pipeline emits is declared here, in one place.  ``Metrics`` itself is
schema-free (any string names a counter), which is what makes ``merge``
associative — but it also means a typo at one call site silently forks a
metric into two series that ``Metrics.merge`` will happily fold apart.
The ``registry-names`` lint rule (:mod:`repro.lint`) closes that hole
statically: a literal name at an ``inc`` / ``observe`` / ``gauge_set`` /
``span`` / trace ``emit`` call site must match a declaration below, where
a trailing ``.*`` (or embedded ``*``) declares a dynamic family whose
suffix is computed at runtime (``farm.alerts.<kind>``).

Adding an instrument is therefore a two-line change: the call site and
the declaration, which is the name with its one-line help text.  The
declarations double as documentation — this module is the one answer to
"what can appear in a metrics dump?".
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Tuple

#: Every declared pattern with its one-line help text, keyed by family:
#: counters (``Metrics.inc`` / ``repro.obs.inc``), gauges (``gauge_set`` /
#: ``gauge_max``), histograms (``observe`` / ``histogram`` / ``timer``),
#: span path components as written at ``Metrics.span`` call sites (nested
#: spans join them with slashes at runtime), and flight-recorder event
#: kinds.  The help text is what ``render_prometheus`` emits as ``# HELP``.
DESCRIPTIONS = {
    "counter": {
        "rng.streams_created": "named deterministic rng streams minted",
        "rng.draws": "random draws taken across all named streams",
        "engine.events_scheduled": "events pushed onto the simulation heap",
        "engine.events_dispatched": "events popped and dispatched in time order",
        "honeypot.sessions_accepted": "connections the honeypots accepted",
        "honeypot.sessions_refused": "connections refused at the listener",
        "honeypot.auth_attempts": "login attempts observed across sessions",
        "honeypot.hashes_recorded": "payload hashes recorded by the pots",
        "honeypot.sessions.*": "sessions finished, per session category",
        "honeypot.timeouts.*": "sessions timed out, per timeout reason",
        "store.sessions_appended": "session rows appended to a store",
        "store.blocks_appended": "column blocks appended (one per emitting shard)",
        "store.adopts": "whole-store adoptions during merges",
        "store.adopts_fastpath": "adoptions served by the frozen fast path",
        "store.sessions_adopted": "session rows adopted during merges",
        "store.freezes": "stores frozen to columnar form",
        "store.npz_saves": "stores persisted as npz archives",
        "store.npz_saved_sessions": "session rows persisted to npz",
        "store.npz_loads": "npz archives loaded back into stores",
        "store.npz_loaded_sessions": "session rows loaded from npz",
        "cache.hits": "dataset cache lookups served from disk",
        "cache.misses": "dataset cache lookups that generated instead",
        "cache.stores": "datasets written into the cache",
        "cache.corrupt_entries": "cache entries dropped as unreadable",
        "cache.loaded_sessions": "session rows loaded from cache hits",
        "generator.sessions.*": "sessions generated, per category",
        "generator.days.*": "active generation days, per category",
        "generator.spike_sessions.*": "spike-day sessions, per category",
        "generator.campaigns_realized": "campaigns realised after scaling",
        "generator.campaign_days": "campaign active days generated",
        "generator.campaign_sessions": "sessions attributed to campaigns",
        # Per-process like the shape recipes they count: a second worker
        # runs a shape again.
        "script.shell_runs": "scripts run through the emulated shell",
        "script.shape_hits": "script profiles filled in from a shape "
                             "already run",
        "shards.emitted": "shard tasks emitted by workers",
        "shards.sessions.*": "sessions emitted, per shard kind",
        "context.*": "analysis context cache property hits and misses",
        "farm.alerts.*": "farm-health alerts raised, per alert kind",
        # Physical-scheduling counters: retries vary with the backend and
        # worker count; only task totals are invariant.
        "sched.tasks_submitted": "task attempts submitted to a backend",
        "sched.tasks_completed": "task attempts completed successfully",
        "sched.tasks_retried": "task attempts re-queued after an error",
        "sketch.sessions_observed": "sessions folded into the sketches",
        "sketch.events_consumed": "trace events consumed by the sketches",
        "sketch.store_sessions_ingested": "store rows ingested by the sketches",
        # Physical liveness: varies with backend and worker count.
        "sched.heartbeat.*": "worker heartbeats received / stale episodes",
        "ledger.*": "run-ledger rows, alerts and files recorded",
    },
    "gauge": {
        "engine.heap_depth_max": "peak simulation event-heap depth",
        "shards.count": "shards in the generation plan",
        "shards.workers": "worker processes requested for the run",
        "shards.queue_wait_seconds": "estimated shard queue-wait wall seconds",
        "store.npz_save_bytes_per_second": "npz save throughput",
        "store.npz_load_bytes_per_second": "npz load throughput",
        "sched.backlog_peak": "peak outstanding task count",
        "sched.heartbeat.rss_kb_peak": "peak worker RSS reported by heartbeats",
        "sketch.unique.*": "streaming cardinality estimates",
    },
    "histogram": {
        "store.adopt_seconds": "per-store adoption wall seconds",
        "store.freeze_seconds": "per-store freeze wall seconds",
        "store.npz_save_seconds": "per-archive npz save wall seconds",
        "store.npz_load_seconds": "per-archive npz load wall seconds",
        "shards.sessions_per_shard": "sessions emitted per shard",
        "farm.sessions_per_interval": "live-farm sessions per drift interval",
        "farm.mix.*": "per-interval session-category share",
        "sched.task_queue_seconds": "per-task wait between submit and run",
        "sched.task_run_seconds": "per-task worker-side execution wall",
        "sched.task_merge_seconds": "per-task store merge wall seconds",
        "resource.*": "per-task worker resource telemetry",
    },
    "span": {
        "generate": "whole-generation stage",
        "plan": "shard planning stage",
        "population": "plan: client population build",
        "targets": "plan: per-client honeypot target sets",
        "calendar": "plan: per-category client day buckets",
        "campaigns": "plan: campaign realisation",
        "writers": "plan: singleton-writer selection and plan",
        "emit": "shard emission stage",
        "merge": "shard store merge stage",
        "shard/*": "worker-side per-shard emission",
        "cache/load": "dataset cache load stage",
        "cache/save": "dataset cache store stage",
        "store/save_npz": "npz persistence stage",
        "store/load_npz": "npz load stage",
        "store/merge": "store merge stage",
        "validate": "calibration validation stage",
        "report": "summary report stage",
        "intermediates": "intermediate table stage",
        "tables_4_5_6": "hash table computation stage",
        "sketch/ingest": "streaming sketch ingest stage",
        "core/ctx/client_table": "analysis context client-IP table build",
        "core/ctx/client_pot": "distinct (client, pot, category) table build",
        "core/ctx/client_day": "distinct (client, day, relation, category) build",
    },
    # The honeypot session kinds mirror repro.honeypot.events.EventType
    # one-for-one; a unit test keeps the two in sync.
    "trace": {
        "generator.block": "bulk emission block boundary",
        "generate.merged": "final store merge completed",
        "shard.emit": "one shard emitted by a worker",
        "sched.trace.built": "shard task list built from the plan",
        "sched.task.submit": "task attempt submitted to the backend",
        "sched.task.done": "task attempt completed",
        "sched.task.retry": "task attempt re-queued after an error",
        "sched.heartbeat.*": "worker heartbeat / stale-worker episode",
        "run.begin": "run opened: command, config, fingerprint, backend",
        "run.store": "final store digest and session count",
        "run.artifact": "file the run wrote, with its sha256",
        "farm.alert": "farm-health alert raised",
        "engine.dispatch": "simulation event dispatched",
        "collector.summary": "collector interval summary",
        "honeypot.refused": "connection refused at the listener",
        "honeypot.session.connect": "session connected",
        "honeypot.client.version": "client version exchanged",
        "honeypot.login.success": "login succeeded",
        "honeypot.login.failed": "login failed",
        "honeypot.command.input": "command entered",
        "honeypot.command.failed": "command rejected",
        "honeypot.session.file_download": "file downloaded in session",
        "honeypot.session.file_upload": "file uploaded in session",
        "honeypot.session.file_created": "file created in session",
        "honeypot.session.file_modified": "file modified in session",
        "honeypot.session.closed": "session closed",
    },
}


COUNTERS: Tuple[str, ...] = tuple(DESCRIPTIONS["counter"])
GAUGES: Tuple[str, ...] = tuple(DESCRIPTIONS["gauge"])
HISTOGRAMS: Tuple[str, ...] = tuple(DESCRIPTIONS["histogram"])
SPANS: Tuple[str, ...] = tuple(DESCRIPTIONS["span"])
TRACE_KINDS: Tuple[str, ...] = tuple(DESCRIPTIONS["trace"])

#: Instrument family -> declared name tuple (the lint rule's lookup table).
FAMILIES = {family: tuple(table) for family, table in DESCRIPTIONS.items()}


def describe(family: str, name: str) -> str:
    """The declared help text for ``name`` in ``family`` ("" = undeclared).

    Exact declarations win; otherwise the first ``*`` pattern matching
    ``name`` supplies the family-level description.
    """
    table = DESCRIPTIONS.get(family, {})
    exact = table.get(name)
    if exact is not None:
        return exact
    for pattern, text in table.items():
        if "*" in pattern and fnmatchcase(name, pattern):
            return text
    return ""


def is_declared(name: str, patterns: Tuple[str, ...]) -> bool:
    """True when ``name`` matches a declaration (exact or ``*`` pattern)."""
    for pattern in patterns:
        if "*" in pattern:
            if fnmatchcase(name, pattern):
                return True
        elif name == pattern:
            return True
    return False


def prefix_may_match(head: str, patterns: Tuple[str, ...]) -> bool:
    """Could a name starting with literal ``head`` match a declaration?

    This is the static check for dynamic names (f-strings): only the
    literal head is known, so ``head`` is compared against each pattern's
    literal prefix (the part before its first ``*``).  Exact declarations
    match when they start with ``head``.
    """
    for pattern in patterns:
        star = pattern.find("*")
        literal = pattern if star < 0 else pattern[:star]
        if star < 0:
            if pattern.startswith(head):
                return True
        elif head.startswith(literal) or literal.startswith(head):
            return True
    return False
