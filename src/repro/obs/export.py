"""Exporters: metrics (stderr tree, JSON, Prometheus) and traces
(JSONL, timeline waterfall, Chrome ``trace_event``).

``render`` turns a registry into the line-text report printed by
``python -m repro <cmd> --metrics``; ``dump_json`` writes the registry's
dict form to a file for machine consumption (benchmarks, CI artefacts);
``render_prometheus`` emits the text exposition format a scraper expects.
The trace exporters serialise flight-recorder event lists: one JSON object
per line (``write_trace_jsonl`` / ``read_trace_jsonl``), a per-trace span
waterfall for stderr (``render_timeline``), and the Chrome ``trace_event``
JSON that ``about://tracing`` / Perfetto load (``dump_chrome_trace``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.atomic import staged_file
from repro.obs.metrics import Metrics


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:7.2f}s "
    return f"{seconds * 1000:7.1f}ms"


def _span_tree(spans: Dict[str, Dict[str, float]]):
    """(nodes, children) with implicit parents synthesised.

    A merged registry can contain a path like ``generate/emit/shard/bg_cmd``
    without its ``shard`` ancestor ever having been entered (worker spans
    re-rooted under the parent's tree); such implicit nodes aggregate their
    children's totals so the rendered tree still reads top-down.
    """
    nodes: Dict[str, Dict[str, float]] = {
        path: dict(cell) for path, cell in spans.items()
    }
    children: Dict[str, List[str]] = {}
    for path in sorted(nodes):
        walk = path
        while "/" in walk:
            parent = walk.rsplit("/", 1)[0]
            siblings = children.setdefault(parent, [])
            if walk not in siblings:
                siblings.append(walk)
            if parent not in nodes:
                nodes[parent] = {"count": 0, "wall": 0.0, "cpu": 0.0}
            walk = parent
        children.setdefault(path, [])
    # Implicit nodes (count 0) show the sum of their children, deepest first.
    for path in sorted(nodes, key=lambda p: -p.count("/")):
        cell = nodes[path]
        if cell["count"] == 0 and children.get(path):
            for child in children[path]:
                cell["wall"] += nodes[child]["wall"]
                cell["cpu"] += nodes[child]["cpu"]
    roots = [path for path in nodes if "/" not in path]
    return nodes, children, roots


def render_spans(metrics: Metrics) -> List[str]:
    nodes, children, roots = _span_tree(metrics.spans)
    lines: List[str] = []

    def emit(path: str, depth: int) -> None:
        cell = nodes[path]
        name = path.rsplit("/", 1)[-1]
        label = "  " * depth + name
        count = int(cell["count"])
        lines.append(
            f"{label:<38} wall {_format_seconds(cell['wall'])} "
            f"cpu {_format_seconds(cell['cpu'])}  n={count if count else '-'}"
        )
        for child in sorted(children.get(path, []),
                            key=lambda p: -nodes[p]["wall"]):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda p: -nodes[p]["wall"]):
        emit(root, 0)
    return lines


def render(metrics: Metrics, title: str = "metrics") -> str:
    """The full line-text report: span tree, counters, gauges, histograms."""
    lines = [f"== {title}: stage timings =="]
    span_lines = render_spans(metrics)
    lines.extend(span_lines if span_lines else ["(no spans recorded)"])
    if metrics.counters:
        lines.append(f"== {title}: counters ==")
        for name in sorted(metrics.counters):
            value = metrics.counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{name:<42} {shown:>14,}")
    if metrics.gauges:
        lines.append(f"== {title}: gauges ==")
        for name in sorted(metrics.gauges):
            lines.append(f"{name:<42} {metrics.gauges[name]:>14,.6g}")
    if metrics.histograms:
        lines.append(f"== {title}: histograms ==")
        for name in sorted(metrics.histograms):
            h = metrics.histograms[name]
            lines.append(
                f"{name:<30} n={h.count:<7} mean={h.mean:.4g} "
                f"p50={h.percentile(50):.4g} p90={h.percentile(90):.4g} "
                f"max={h.max:.4g}"
            )
    return "\n".join(lines)


def dump_json(metrics: Metrics, path: str) -> None:
    """Write the registry's dict form as indented JSON (atomically)."""
    with staged_file(path, "w") as fh:
        json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- Prometheus text format ----------------------------------------------------


def _prom_name(name: str) -> str:
    """A repro instrument name as a Prometheus metric name."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitised = "".join(out)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return f"repro_{sanitised}"


def _prom_names(keys: List[Tuple[str, str]]) -> Dict[Tuple[str, str], str]:
    """(family, name) -> exposition name, with collisions disambiguated.

    Sanitising is lossy — ``sched.task-run`` and ``sched.task_run`` both
    become ``repro_sched_task_run`` — and Prometheus rejects (or worse,
    silently merges) duplicate series.  Every member of a colliding group
    gets a deterministic 6-hex suffix derived from its own raw identity,
    so the mapping is stable across runs and independent of which other
    names happen to be present in the group.
    """
    import hashlib

    mapped = {
        (family, name): _prom_name(name if family != "span"
                                   else f"span_{name}")
        for family, name in keys
    }
    groups: Dict[str, List[Tuple[str, str]]] = {}
    for key, prom in mapped.items():
        groups.setdefault(prom, []).append(key)
    for prom, members in groups.items():
        if len(members) == 1:
            continue
        for family, name in members:
            digest = hashlib.sha256(
                f"{family}:{name}".encode("utf-8")
            ).hexdigest()[:6]
            mapped[(family, name)] = f"{prom}_{digest}"
    return mapped


def _span_help(path: str) -> str:
    """Registry help for a slash-joined span path.

    Span declarations name the literal a call site passes (a leaf like
    ``merge`` or a family like ``shard/*``), while merged paths are
    nested (``generate/emit/shard/bg_cmd``); match progressively longer
    trailing segments so both forms resolve.
    """
    from repro.obs.names import describe

    parts = path.split("/")
    for start in range(len(parts) - 1, -1, -1):
        text = describe("span", "/".join(parts[start:]))
        if text:
            return text
    return ""


def render_prometheus(metrics: Metrics) -> str:
    """The registry in Prometheus text exposition format.

    Counters and gauges map directly; histograms surface as summaries
    (``_count`` / ``_sum`` plus p50/p90/p99 ``quantile`` labels), which is
    what lets ``repro monitor`` output be scraped without a client library.
    Distinct registry names that sanitise to the same exposition name are
    disambiguated (see :func:`_prom_names`); an empty histogram emits
    ``NaN`` quantiles — the Prometheus convention for a summary with no
    observations — rather than a misleading 0.  ``# HELP`` text comes
    from the declared-name registry (:mod:`repro.obs.names`).
    """
    from repro.obs.names import describe

    keys: List[Tuple[str, str]] = (
        [("counter", n) for n in sorted(metrics.counters)]
        + [("gauge", n) for n in sorted(metrics.gauges)]
        + [("histogram", n) for n in sorted(metrics.histograms)]
        + [("span", p) for p in sorted(metrics.spans)]
    )
    names = _prom_names(keys)
    lines: List[str] = []

    def header(family: str, name: str, prom: str, prom_type: str) -> None:
        help_text = (_span_help(name) if family == "span"
                     else describe(family, name))
        if help_text:
            lines.append(f"# HELP {prom} {help_text}")
        lines.append(f"# TYPE {prom} {prom_type}")

    for name in sorted(metrics.counters):
        prom = names[("counter", name)]
        header("counter", name, prom, "counter")
        lines.append(f"{prom} {float(metrics.counters[name]):g}")
    for name in sorted(metrics.gauges):
        prom = names[("gauge", name)]
        header("gauge", name, prom, "gauge")
        lines.append(f"{prom} {float(metrics.gauges[name]):g}")
    for name in sorted(metrics.histograms):
        hist = metrics.histograms[name]
        prom = names[("histogram", name)]
        header("histogram", name, prom, "summary")
        for q in (0.5, 0.9, 0.99):
            value = (f"{hist.percentile(q * 100):g}" if hist.count
                     else "NaN")
            lines.append(f'{prom}{{quantile="{q:g}"}} {value}')
        lines.append(f"{prom}_sum {hist.total:g}")
        lines.append(f"{prom}_count {hist.count}")
    for path in sorted(metrics.spans):
        cell = metrics.spans[path]
        prom = names[("span", path)]
        header("span", path, f"{prom}_seconds", "counter")
        lines.append(f"{prom}_seconds {cell['wall']:g}")
        lines.append(f"{prom}_count {int(cell['count'])}")
    return "\n".join(lines) + "\n"


# -- trace exporters -----------------------------------------------------------


def write_trace_jsonl(events: Iterable[Dict[str, Any]], path: str) -> int:
    """Write flight-recorder events as JSON lines (atomically); returns
    the count."""
    count = 0
    with staged_file(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
            count += 1
    return count


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace written by a tracer sink or write_trace_jsonl."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def render_timeline(
    events: List[Dict[str, Any]],
    width: int = 64,
    max_traces: int = 40,
) -> str:
    """A per-trace span waterfall over simulation time, for stderr.

    Each trace id gets one row: a bar spanning its first..last ``ts``
    positioned on a shared axis, annotated with the event count.  Traces
    print in first-seen order (the waterfall); with more than
    ``max_traces`` the busiest are kept and the tail summarised.
    """
    spans: Dict[str, List[float]] = {}
    order: List[str] = []
    stamped = 0
    for event in events:
        ts = event.get("ts")
        if ts is None:
            continue
        stamped += 1
        trace_id = event.get("trace_id") or "(no trace)"
        cell = spans.get(trace_id)
        if cell is None:
            spans[trace_id] = [ts, ts, 1]
            order.append(trace_id)
        else:
            cell[0] = min(cell[0], ts)
            cell[1] = max(cell[1], ts)
            cell[2] += 1
    if not spans:
        return "(no sim-time-stamped events to draw)"
    t0 = min(cell[0] for cell in spans.values())
    t1 = max(cell[1] for cell in spans.values())
    span = max(t1 - t0, 1e-9)
    shown = order
    dropped = 0
    if len(order) > max_traces:
        busiest = set(sorted(order, key=lambda t: -spans[t][2])[:max_traces])
        shown = [t for t in order if t in busiest]
        dropped = len(order) - len(shown)
    label_w = min(max(len(t) for t in shown), 28)
    lines = [
        f"== trace timeline: {len(order)} traces, {stamped} stamped events, "
        f"t={t0:.1f}s..{t1:.1f}s =="
    ]
    for trace_id in shown:
        lo, hi, n = spans[trace_id]
        a = int((lo - t0) / span * (width - 1))
        b = max(int((hi - t0) / span * (width - 1)), a)
        bar = " " * a + "#" * (b - a + 1)
        label = (trace_id[: label_w - 1] + "…"
                 if len(trace_id) > label_w else trace_id)
        lines.append(f"{label:<{label_w}} |{bar:<{width}}| n={int(n)}")
    if dropped:
        lines.append(f"... and {dropped} quieter traces")
    return "\n".join(lines)


def chrome_trace_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flight-recorder events in Chrome ``trace_event`` form.

    Each trace id becomes one "thread": a complete ("X") slice spanning
    its first..last sim-time stamp, plus instant ("i") marks per event.
    Shard provenance maps to the pid so about://tracing groups worker
    output visually.  Sim seconds map to trace microseconds.
    """
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    order: List[str] = []
    for event in events:
        if event.get("ts") is None:
            continue
        trace_id = event.get("trace_id") or "(no trace)"
        if trace_id not in by_trace:
            by_trace[trace_id] = []
            order.append(trace_id)
        by_trace[trace_id].append(event)
    out: List[Dict[str, Any]] = []
    for tid_index, trace_id in enumerate(order):
        group = by_trace[trace_id]
        first, last = group[0], group[-1]
        shard = first.get("shard") or {}
        pid = int(shard.get("index", 0))
        t0 = min(e["ts"] for e in group)
        t1 = max(e["ts"] for e in group)
        out.append({
            "name": trace_id,
            "cat": "trace",
            "ph": "X",
            "pid": pid,
            "tid": tid_index,
            "ts": t0 * 1e6,
            "dur": max((t1 - t0) * 1e6, 1.0),
            "args": {"events": len(group),
                     "shard": shard.get("key", "")},
        })
        for event in group:
            out.append({
                "name": event.get("kind", "?"),
                "cat": "event",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid_index,
                "ts": event["ts"] * 1e6,
                "args": event.get("data", {}),
            })
    return out


def dump_chrome_trace(events: List[Dict[str, Any]], path: str) -> None:
    """Write the Chrome ``trace_event`` JSON for about://tracing
    (atomically)."""
    with staged_file(path, "w") as fh:
        json.dump({"traceEvents": chrome_trace_events(events),
                   "displayTimeUnit": "ms"}, fh)
        fh.write("\n")
