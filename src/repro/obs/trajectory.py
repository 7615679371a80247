"""The benchmark trajectory: persisted perf history across CI runs.

Each CI run appends one record — commit, generation throughput
(sessions/sec), and the per-stage span seconds — to a JSON-array file
(``BENCH_trajectory.json`` at the repository root), turning one-off
``--metrics`` dumps into a trajectory reviewers can diff.  The companion
regression check fails CI when generation throughput drops more than a
threshold vs the last recorded run.

Usable three ways: as a library (``append_record`` / ``check_regression``),
from the benchmark harness (``benchmarks/conftest.py`` appends when
``REPRO_BENCH_TRAJECTORY`` names a file), and as a CLI from ``scripts/ci.sh``::

    python -m repro.obs.trajectory --metrics metrics.json \
        --out BENCH_trajectory.json --fail-threshold 0.2
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.store.npz import staged_file

#: Span paths whose wall seconds are persisted per record (with any of
#: their direct children); everything else is noise at trajectory scale.
STAGE_ROOTS = ("generate", "report", "validate", "tables", "sketch")


def current_commit() -> str:
    """The current short commit hash, or "unknown" outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def sessions_per_second(metrics: Dict) -> Optional[float]:
    """Generation throughput from a registry dict (None if it never ran)."""
    sessions = metrics.get("counters", {}).get("store.sessions_appended", 0)
    wall = metrics.get("spans", {}).get("generate", {}).get("wall", 0.0)
    if not sessions or wall <= 0:
        return None
    return float(sessions) / float(wall)


def streaming_events_per_second(metrics: Dict) -> Optional[float]:
    """Streaming-analytics ingest throughput (None if it never ran).

    Events consumed by :class:`repro.analytics.StreamingAnalytics` over
    the wall seconds spent under the top-level ``sketch/ingest`` span.
    """
    events = metrics.get("counters", {}).get("sketch.events_consumed", 0)
    wall = metrics.get("spans", {}).get("sketch/ingest", {}).get("wall", 0.0)
    if not events or wall <= 0:
        return None
    return float(events) / float(wall)


def stage_seconds(metrics: Dict) -> Dict[str, float]:
    """Wall seconds of the pipeline stages (roots and their children)."""
    out: Dict[str, float] = {}
    for path, cell in metrics.get("spans", {}).items():
        parts = path.split("/")
        if parts[0] in STAGE_ROOTS and len(parts) <= 2:
            out[path] = round(float(cell.get("wall", 0.0)), 6)
    return out


def load_trajectory(path) -> List[Dict]:
    """Records recorded so far (empty when the file does not exist yet)."""
    p = Path(path)
    if not p.exists():
        return []
    with open(p, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: trajectory file is not a JSON array")
    return data


def append_record(
    path,
    metrics: Dict,
    commit: Optional[str] = None,
    context: Optional[Dict] = None,
) -> Dict:
    """Append one trajectory record built from a registry dict.

    Returns the record.  ``context`` carries run parameters worth pinning
    (scale, workers) so later records are comparable for what they claim.
    """
    record = {
        "commit": commit if commit is not None else current_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "sessions_per_second": sessions_per_second(metrics),
        "sessions": metrics.get("counters", {}).get(
            "store.sessions_appended", 0),
        "stage_seconds": stage_seconds(metrics),
    }
    measures = [] if record["sessions_per_second"] is None \
        else ["sessions_per_second"]
    streaming = streaming_events_per_second(metrics)
    if streaming is not None:
        record["streaming_events_per_second"] = streaming
        measures.append("streaming_events_per_second")
    # Label what this run actually measured, so a reader (or the gate)
    # never mistakes a streaming-only row for a generation row.
    record["measures"] = measures
    if context:
        record["context"] = dict(context)
    records = load_trajectory(path)
    records.append(record)
    # Stage and rename: an interrupted dump leaves the old history whole.
    with staged_file(path, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


#: Context keys that make two records comparable.  Records written before
#: the block engine existed carry no ``emit_path`` — they all ran the
#: scalar path, so a missing value reads as "scalar".
COMPARISON_KEYS = ("scale", "workers", "backend", "emit_path")

_CONTEXT_DEFAULTS = {"emit_path": "scalar"}


def comparison_key(record: Dict) -> Tuple[str, ...]:
    """The context tuple under which a record's throughput is comparable."""
    ctx = record.get("context") or {}
    return tuple(
        str(ctx.get(key, _CONTEXT_DEFAULTS.get(key, "")))
        for key in COMPARISON_KEYS
    )


def check_regression(
    records: List[Dict], threshold: float = 0.2
) -> Optional[str]:
    """A failure message when the newest run regressed vs its predecessor.

    Compares generation throughput (sessions/sec) of the last record
    against the most recent earlier record that measured it *under the
    same context* (scale, workers, backend, emit path — see
    :func:`comparison_key`); a drop of more than ``threshold`` (fraction)
    is a regression.  Records measured under a different context — a new
    scale, the other emit path — start their own comparison series, so a
    scalar-reference row can never gate a block-path row or vice versa.
    Returns None when there is nothing to compare or throughput held up.
    """
    measured = [r for r in records if r.get("sessions_per_second")]
    if not measured:
        return None
    last = measured[-1]
    key = comparison_key(last)
    earlier = [r for r in measured[:-1] if comparison_key(r) == key]
    if not earlier:
        return None
    prev = earlier[-1]
    before = float(prev["sessions_per_second"])
    after = float(last["sessions_per_second"])
    if after < before * (1.0 - threshold):
        return (
            f"generation throughput regressed "
            f"{(1 - after / before):.1%} (> {threshold:.0%}) "
            f"under context {dict(zip(COMPARISON_KEYS, key))}: "
            f"{before:,.0f} -> {after:,.0f} sessions/sec "
            f"({prev.get('commit')} -> {last.get('commit')})"
        )
    return None


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.trajectory",
        description="append a benchmark-trajectory record from a "
                    "--metrics JSON dump and check for throughput regressions",
    )
    parser.add_argument("--metrics", required=True,
                        help="registry JSON written by --metrics PATH")
    parser.add_argument("--out", default="BENCH_trajectory.json",
                        help="trajectory file to append to")
    parser.add_argument("--commit", default=None,
                        help="commit id to record (default: git rev-parse)")
    parser.add_argument("--context", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="run parameter to pin on the record (repeatable)")
    parser.add_argument("--fail-threshold", type=float, default=None,
                        metavar="FRACTION",
                        help="exit 1 when sessions/sec dropped more than "
                             "FRACTION vs the previous record (e.g. 0.2)")
    args = parser.parse_args(argv)

    with open(args.metrics, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    context = {}
    for item in args.context:
        key, _, value = item.partition("=")
        context[key] = value
    record = append_record(args.out, metrics,
                           commit=args.commit, context=context or None)
    sps = record["sessions_per_second"]
    print(f"trajectory: {record['commit']} "
          f"{sps:,.0f} sessions/sec" if sps else
          f"trajectory: {record['commit']} (no generation this run)")
    if args.fail_threshold is not None:
        message = check_regression(load_trajectory(args.out),
                                   args.fail_threshold)
        if message:
            print(f"REGRESSION: {message}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
