"""Per-layer spans recorded from outside ``src/``.

A traced repetition installs wrappers with ``setattr`` on the module and
class attributes through which each layer is looked up at call time (the
program itself is not changed).  A wrapper records a span -- name, start,
end, parent -- or, for calls too hot to record one by one, adds to a
(seconds, calls) timer.  Spans stay in memory and are returned to the
runner when the repetition ends.

A target that no longer exists is reported in :attr:`Tracer.absent` and
skipped, so a refactor that renames a layer entry point shows up as missing
per-layer numbers, not as a crashed benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The eight shard kinds of ``repro.workload.shards``.
SHARD_KINDS = ("campaign", "campaign_group", "singletons", "bg_cmd",
               "bg_uri", "no_cred", "fail_log", "no_cmd")

#: Artifact keys ``repro.core.report.full_report`` computes, in its order.
REPORT_KEYS = (
    "table1", "table2", "table3", "tables_4_5_6",
    "fig1_pots_per_country", "fig2_activity", "fig2_sorted_sessions",
    "fig3_bands_top", "fig4_bands_all", "fig5_category_shares",
    "fig6_fractions", "fig7_durations", "fig8_bands_by_category",
    "fig9_bands_by_category_top", "fig10_clients_by_country",
    "fig11_daily_ips", "fig12_pots_per_client", "fig13_days_per_client",
    "fig14_clients_per_pot", "fig15_combos", "fig16_diversity",
    "fig17_freshness", "fig18_hashes_per_pot", "fig19_sessions_per_pot",
    "fig20_clients_per_hash", "fig21_hashes_per_client",
    "fig22_campaign_lengths", "fig23_country_by_category",
    "fig24_diversity_by_category", "clients_summary", "hash_coverage",
    "intel_coverage", "ext_as_counts", "ext_versions", "ext_federation",
    "ext_blocklist_100",
)

#: ``AnalysisContext`` intermediates: metric suffix -> wrapped target.
CONTEXT_TARGETS = {
    "classify_store": "repro.core.classify:classify_store",
    "hash_occurrences": "repro.core.hashes:HashOccurrences.build",
    "compute_hash_stats": "repro.core.hashes:compute_hash_stats",
    "daily_totals": "repro.core.timeseries:daily_totals",
    "honeypots_per_client": "repro.core.clients:honeypots_per_client",
    "days_per_client": "repro.core.clients:days_per_client",
}

#: Sketch classes whose ``add`` is timed in aggregate (one span per call
#: would cost more than the call).
SKETCH_TIMERS = {
    "hll": "repro.analytics.sketches:HyperLogLog.add",
    "cms": "repro.analytics.sketches:CountMinSketch.add",
    "topk": "repro.analytics.sketches:SpaceSaving.add",
    "exact": "repro.analytics.sketches:ExactCounter.add",
}


class Tracer:
    """Spans and timers for one repetition (trace id ``workload:rep``)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        #: ``[name, start, end, parent index]``; parent -1 for top level.
        self.spans: List[list] = []
        #: name -> [seconds, calls] for aggregate-timed calls.
        self.timers: Dict[str, list] = {}
        #: Counts and values read from layer return values.
        self.values: Dict[str, float] = {}
        #: Targets that could not be resolved.
        self.absent: List[str] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.remove(index)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def wrap(self, target: str, name: str, *, timer: bool = False,
             after: Optional[Callable] = None) -> bool:
        """Replace ``module:Attr.path`` with a recording wrapper.

        Returns False (and records the target as absent) when the module
        or attribute does not exist.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        binder = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            binder, func = type(raw), raw.__func__
        if timer:
            wrapper = self._timer_wrapper(name, func)
        else:
            wrapper = self._span_wrapper(name, func, after)
        setattr(owner, attr, binder(wrapper) if binder else wrapper)
        return True

    def _span_wrapper(self, name, func, after):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _timer_wrapper(self, name, func):
        cell = self.timers.setdefault(name, [0.0, 0])
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                cell[0] += clock() - start
                cell[1] += 1
        return wrapper

    def to_dict(self, origin: float) -> dict:
        """JSON form, span times in seconds since ``origin``."""
        return {
            "trace_id": self.trace_id,
            "spans": [
                {"name": name, "start": start - origin,
                 "end": (end if end is not None else start) - origin,
                 "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "timers": {k: {"seconds": v[0], "calls": v[1]}
                       for k, v in self.timers.items()},
            "values": dict(self.values),
            "absent": list(self.absent),
        }


# -- return-value observers ------------------------------------------------


def _after_plan(tracer: Tracer, _args, plan) -> None:
    tracer.values["workload.plan.shards"] = len(plan.shards)
    tracer.values["workload.plan.campaigns"] = len(plan.gen.realized)


def _after_sched_run(tracer: Tracer, args, outcomes) -> None:
    """Busy time, shard sizes and retries from the ``TaskOutcome`` list."""
    scheduler = args[0]
    tracer.add("sched.workers", scheduler.config.workers)
    tracer.add("sched.tasks", len(outcomes))
    peak_kb = 0
    for outcome in outcomes:
        kind = outcome.task.kind
        tracer.add("sched.task_busy_s", outcome.run_seconds)
        tracer.add(f"workload.emit.{kind}_s", outcome.run_seconds)
        tracer.add(f"workload.emit.{kind}_sessions", len(outcome.store))
        tracer.add("sched.failed_attempts", outcome.attempt - 1)
        peak_kb = max(peak_kb, (outcome.telemetry or {}).get("max_rss_kb", 0))
    tracer.values["sched.worker_peak_rss_kb"] = max(
        peak_kb, tracer.values.get("sched.worker_peak_rss_kb", 0))


def _after_save_npz(tracer: Tracer, args, _result) -> None:
    tracer.add("store.npz_bytes", Path(args[1]).stat().st_size)


def _after_feed_many(tracer: Tracer, _args, count) -> None:
    tracer.add("analytics.events_fed", count)


#: (target, span name, observer) for every span-recording wrapper.
SPAN_TARGETS = [
    ("repro.api:generate", "workload.generate", None),
    ("repro.workload.shards:_plan_for", "workload.plan", _after_plan),
    ("repro.workload.generator:TraceGenerator.__init__",
     "workload.plan.generator_init", None),
    ("repro.workload.generator:TraceGenerator._build_day_buckets",
     "workload.plan.day_buckets", None),
    ("repro.workload.generator:TraceGenerator._realize_campaigns",
     "workload.plan.realize_campaigns", None),
    ("repro.workload.script_runner:ScriptRunner.profile",
     "workload.script_profile", None),
    ("repro.workload.shards:emit_shard", "workload.emit.shard", None),
    ("repro.workload.generator:TraceGenerator._finalize",
     "workload.finalize", None),
    ("repro.workload.validation:validate", "workload.validate", None),
    ("repro.sched.scheduler:_resolve_trace", "sched.trace_build", None),
    ("repro.sched.scheduler:Scheduler.run", "sched.run", _after_sched_run),
    ("repro.store.store:StoreBuilder.adopt_store", "store.merge", None),
    ("repro.store.store:StoreBuilder.build", "store.freeze", None),
    ("repro.workload.io:save_dataset", "store.save_dataset", None),
    ("repro.workload.io:save_npz", "store.save_npz", _after_save_npz),
    ("repro.workload.io:load_dataset", "store.load_dataset", None),
    ("repro.workload.io:load_npz", "store.load_npz", None),
    ("repro.analytics.streaming:StreamingAnalytics.ingest_store",
     "analytics.ingest_store", None),
    ("repro.analytics.streaming:StreamingAnalytics.feed_many",
     "analytics.feed_many", _after_feed_many),
] + [(target, f"core.ctx.{name}", None)
     for name, target in CONTEXT_TARGETS.items()]


def install(tracer: Tracer) -> Tracer:
    """Install every wrapper; unresolvable targets land in ``absent``."""
    for target, name, after in SPAN_TARGETS:
        tracer.wrap(target, name, after=after)
    for name, target in SKETCH_TIMERS.items():
        tracer.wrap(target, f"analytics.{name}_add", timer=True)
    tracer.wrap("repro.analytics.streaming:StreamingAnalytics.observe_session",
                "analytics.observe_session", timer=True)
    _install_report_spans(tracer)
    return tracer


def _install_report_spans(tracer: Tracer) -> None:
    """Span every ``metrics.span(key)`` block of ``full_report``.

    ``full_report`` names each artifact it computes through the metrics
    registry it looks up as ``repro.core.report.get_metrics``; the proxy
    returned here opens a benchmark span beside each of those blocks.
    """
    target = "repro.core.report:get_metrics"
    try:
        module = importlib.import_module("repro.core.report")
        real_get = module.get_metrics
    except (ImportError, AttributeError):
        tracer.absent.append(target)
        return

    class _ReportMetrics:
        def __init__(self, real):
            self._real = real

        @contextmanager
        def span(self, key):
            name = ("core.report" if key == "report"
                    else "core.intermediates" if key == "intermediates"
                    else f"core.fig.{key}")
            with self._real.span(key), tracer.span(name):
                yield

        def __getattr__(self, attr):
            return getattr(self._real, attr)

    module.get_metrics = lambda: _ReportMetrics(real_get())


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (see BENCHMARK.json).

    Times are the inclusive duration of the named spans inside the ``job``
    span, except ``core.fig.*``, which are self times: the shared
    ``AnalysisContext`` intermediates a figure happens to compute first
    are charged to ``core.ctx.*``, not to that figure.  Plan lookups and
    freezes inside a shard's emission (the per-process plan cache and the
    shard's own store) belong to emit and are not counted again.
    """
    spans = trace["spans"]
    values = trace["values"]
    timers = trace["timers"]
    job = next(i for i, s in enumerate(spans) if s["name"] == "job")

    def lineage(i):
        names = set()
        parent = spans[i]["parent"]
        while parent != -1:
            names.add(spans[parent]["name"])
            parent = spans[parent]["parent"]
        return names

    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    child_time = [0.0] * len(spans)
    plan_profile_s = 0.0
    plan_profiles = 0
    fig_spans = []
    for i, span in enumerate(spans):
        above = lineage(i)
        if "job" not in above:
            continue
        duration = span["end"] - span["start"]
        child_time[span["parent"]] += duration
        name = span["name"]
        if name.startswith("core.fig."):
            fig_spans.append(i)
        if name in ("workload.plan", "store.freeze") \
                and "workload.emit.shard" in above:
            continue
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if name == "workload.script_profile" and "workload.plan" in above:
            plan_profile_s += duration
            plan_profiles += 1

    job_s = spans[job]["end"] - spans[job]["start"]
    out: Dict[str, float] = {
        "trace.job_s": job_s,
        "trace.child_coverage_pct": 100.0 * child_time[job] / job_s,
    }
    for name in ("workload.plan", "workload.plan.generator_init",
                 "workload.plan.day_buckets",
                 "workload.plan.realize_campaigns", "workload.finalize",
                 "workload.validate", "sched.run", "sched.trace_build",
                 "store.merge", "store.save_dataset", "store.save_npz",
                 "store.load_dataset", "store.load_npz", "core.report",
                 "core.intermediates", "analytics.ingest_store",
                 "analytics.feed_many"):
        out[f"{name}_s"] = inclusive.get(name, 0.0)
    out["workload.plan.script_profile_s"] = plan_profile_s
    out["workload.plan.script_profiles"] = plan_profiles
    out["workload.plan.shards"] = values.get("workload.plan.shards", 0)
    out["workload.plan.campaigns"] = values.get("workload.plan.campaigns", 0)

    busy = values.get("sched.task_busy_s", 0.0)
    emitted = 0
    for kind in SHARD_KINDS:
        out[f"workload.emit.{kind}_s"] = values.get(
            f"workload.emit.{kind}_s", 0.0)
        sessions = values.get(f"workload.emit.{kind}_sessions", 0)
        out[f"workload.emit.{kind}_sessions"] = sessions
        emitted += sessions
    out["workload.emit_s"] = busy
    out["workload.emit.sessions_per_s"] = emitted / busy if busy else 0.0

    run_s = out["sched.run_s"]
    out["sched.task_busy_s"] = busy
    out["sched.wait_s"] = max(0.0, run_s * values.get("sched.workers", 0)
                              - busy)
    out["sched.tasks"] = values.get("sched.tasks", 0)
    out["sched.failed_attempts"] = values.get("sched.failed_attempts", 0)
    out["sched.worker_peak_rss_mb"] = (
        values.get("sched.worker_peak_rss_kb", 0) / 1024.0)

    out["store.merge_calls"] = calls.get("store.merge", 0)
    out["store.freeze_s"] = inclusive.get("store.freeze", 0.0)
    npz_bytes = values.get("store.npz_bytes", 0)
    out["store.npz_bytes"] = npz_bytes
    save_s = out["store.save_npz_s"]
    out["store.save_mb_per_s"] = npz_bytes / 1e6 / save_s if save_s else 0.0

    for name in CONTEXT_TARGETS:
        out[f"core.ctx.{name}_s"] = inclusive.get(f"core.ctx.{name}", 0.0)
    for key in REPORT_KEYS:
        out[f"core.fig.{key}_s"] = 0.0
    for i in fig_spans:
        span = spans[i]
        key = f"{span['name']}_s"
        if key in out:
            out[key] += span["end"] - span["start"] - child_time[i]

    out["analytics.sessions_observed"] = timers.get(
        "analytics.observe_session", {}).get("calls", 0)
    out["analytics.events_fed"] = values.get("analytics.events_fed", 0)
    for name in SKETCH_TIMERS:
        cell = timers.get(f"analytics.{name}_add", {})
        out[f"analytics.{name}_add_s"] = cell.get("seconds", 0.0)
        out[f"analytics.{name}_adds"] = cell.get("calls", 0)
    return out
