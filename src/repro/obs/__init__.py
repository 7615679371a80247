"""Pipeline observability: metrics registry, stage spans, exporters.

Zero-dependency instrumentation threaded through the hot paths of the
pipeline — sharded trace generation, the discrete-event
engine, honeypot sessions, the analysis context cache and the report
orchestrator.  Collection is always on (the instruments are dict
increments and a pair of clock reads per stage, well under the 3%%
overhead budget); ``python -m repro <cmd> --metrics [PATH]`` or the
``REPRO_METRICS`` environment variable surface the recorded registry as a
stderr summary tree plus an optional JSON dump.

Workers in the sharded generator record into their own registry and ship
its dict form back with each shard; the parent merges them in shard
order, so counters from a ``--workers N`` run sum to the one-worker
totals, except those that count per-process cache work (the
``engine.``/``honeypot.`` profiling counters and ``script.shell_runs``/
``script.shape_hits``: each worker fills its own script-profile cache).

The flight recorder (:mod:`repro.obs.trace`) is the registry's
event-stream counterpart: ring-buffered structured trace events with
sim-time + wall-time stamps and per-session/per-block trace ids, off by
default (a single ``None`` check on the hot paths), folded across workers
in shard order exactly like ``Metrics.merge``.  What varies from run to
run is declared once per event kind (``trace.VOLATILE_BY_KIND``).

The run ledger (:mod:`repro.obs.ledger`) is the run's manifest.  The
scheduler states each operational fact once, as a ``sched.*`` event; the
ledger folds those events (:class:`SchedFold`) whether or not a tracer
records them, and ``repro top`` renders its bounded part
(:class:`repro.obs.ledger.TopFold`).
"""

from repro.obs.export import (
    chrome_trace_events,
    dump_chrome_trace,
    dump_json,
    read_trace_jsonl,
    render,
    render_prometheus,
    render_timeline,
    write_trace_jsonl,
)
from repro.obs.ledger import (
    RunLedger,
    SchedFold,
    get_ledger,
    read_ledger_jsonl,
    sha256_file,
    strip_volatile_records,
    use_ledger,
    validate_ledger,
)
from repro.obs.metrics import (
    Histogram,
    Metrics,
    Stopwatch,
    get_metrics,
    inc,
    stopwatch,
    use_metrics,
)
from repro.obs.resources import (
    ResourceSampler,
    current_rss_kb,
    peak_rss_kb,
    worker_heartbeat,
)
from repro.obs.trace import (
    Tracer,
    get_tracer,
    strip_volatile_events,
    use_tracer,
    validate_trace,
)

__all__ = [
    "Histogram",
    "Metrics",
    "ResourceSampler",
    "RunLedger",
    "SchedFold",
    "Stopwatch",
    "Tracer",
    "chrome_trace_events",
    "current_rss_kb",
    "dump_chrome_trace",
    "dump_json",
    "get_ledger",
    "get_metrics",
    "get_tracer",
    "inc",
    "peak_rss_kb",
    "read_ledger_jsonl",
    "read_trace_jsonl",
    "render",
    "render_prometheus",
    "render_timeline",
    "sha256_file",
    "stopwatch",
    "strip_volatile_events",
    "strip_volatile_records",
    "use_ledger",
    "use_metrics",
    "use_tracer",
    "validate_ledger",
    "validate_trace",
    "worker_heartbeat",
    "write_trace_jsonl",
]
