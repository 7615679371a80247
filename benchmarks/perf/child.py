"""One benchmark process: build a workload's inputs, or run one repetition.

Usage (from ``run.py``, never by hand)::

    python3 child.py '<json spec>'

The spec names the mode (``prep`` or ``rep``), the workload parameters,
the seed, a private work directory and the parent's monotonic clock at
spawn time.  The last line of stdout is a JSON result.

A repetition imports everything it will call before the timer starts, so
``setup_s`` (spawn to imports done) and the timed section are disjoint.
The timed section is the user-visible job only; correctness checks run
after the timer stops and before the process exits.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro import api
from repro.analytics import streaming
from repro.core import classify, report, timeseries
from repro.workload import io, validation
import repro.sched.backends  # noqa: F401  (imported lazily by generate)
import repro.sched.scheduler  # noqa: F401
import repro.workload.shards  # noqa: F401

IMPORTED = time.monotonic()

def _config(spec):
    return repro.ScenarioConfig.from_denominator(
        spec["denominator"], seed=spec["seed"])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cpu() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


# -- prep -------------------------------------------------------------------


def prep(spec) -> dict:
    """Untimed inputs: a saved dataset (report, stream) or the inline
    reference digest (gen on another backend)."""
    out = {"python": sys.version.split()[0], "numpy": np.__version__}
    kind = spec["kind"]
    if kind in ("report", "stream"):
        backend, workers = spec["prep_backend"]
        dataset = api.generate(_config(spec), backend=backend,
                               workers=workers)
        io.save_dataset(dataset, spec["input"])
        out["digest"] = dataset.content_digest()
        out["sessions"] = len(dataset.store)
    elif spec["backend"] != "inline":
        dataset = api.generate(_config(spec), backend="inline", workers=1)
        out["digest"] = dataset.content_digest()
    return out


# -- repetitions ------------------------------------------------------------


def _gen_job(spec, state):
    dataset = api.generate(_config(spec), backend=spec["backend"],
                           workers=spec["workers"])
    io.save_dataset(dataset, state["out"])
    state["dataset"] = dataset
    return len(dataset.store)


def _calibration(calibration, result):
    """Record validate's failed checks.

    ``validate`` compares a trace with the paper's figures within
    statistical tolerances, which a few seeds miss at every scale (3 of 60
    at 1/40000, 7 of 348 at 1/4000), so a failed check is not a failed
    repetition; the runner checks that the verdict repeats instead.
    """
    result["calibration"] = [check.name for check in calibration.failures]


def _gen_check(spec, state, result):
    dataset = state["dataset"]
    result["digest"] = dataset.content_digest()
    result["artifact_mb"] = _dir_bytes(state["out"]) / 1e6
    result["checks"] = {
        "round_trip": (io.load_dataset(state["out"]).content_digest()
                       == result["digest"]),
    }
    _calibration(validation.validate(dataset), result)


def _report_job(spec, state):
    dataset = api.load(spec["input"])
    artifacts = report.full_report(dataset)
    state["summary"] = report.print_summary(dataset, artifacts)
    state["calibration"] = validation.validate(dataset)
    state["dataset"] = dataset
    return len(dataset.store)


def _report_check(spec, state, result):
    result["digest"] = state["dataset"].content_digest()
    result["summary_sha"] = hashlib.sha256(
        state["summary"].encode("utf-8")).hexdigest()
    result["artifact_mb"] = _dir_bytes(Path(spec["input"])) / 1e6
    result["checks"] = {}
    _calibration(state["calibration"], result)


def _stream_setup(spec, state):
    store = io.load_dataset(spec["input"]).store
    state["store"] = store
    state["events"] = streaming.replay_store_events(store)


def _stream_job(spec, state):
    by_store = streaming.StreamingAnalytics()
    by_store.ingest_store(state["store"])
    by_events = streaming.StreamingAnalytics()
    by_events.feed_many(state["events"])
    state["paths"] = (by_store, by_events)
    # Each session is consumed once per intake path.
    return 2 * len(state["store"])


def _stream_check(spec, state, result):
    store = state["store"]
    batch_mix = np.bincount(classify.classify_store(store),
                            minlength=len(classify.CATEGORIES))
    expected = {cat.value: int(batch_mix[i])
                for i, cat in enumerate(classify.CATEGORIES)}
    daily = timeseries.daily_totals(store)
    exact = all(
        path.category_counts() == expected
        and np.array_equal(path.sessions_per_day(len(daily)), daily)
        for path in state["paths"]
    )
    result["digest"] = store.content_digest()
    result["artifact_mb"] = _dir_bytes(Path(spec["input"])) / 1e6
    result["checks"] = {"stream_exact": exact}


JOBS = {
    "gen": (None, _gen_job, _gen_check),
    "report": (None, _report_job, _report_check),
    "stream": (_stream_setup, _stream_job, _stream_check),
}


def repetition(spec) -> dict:
    setup, job, check = JOBS[spec["kind"]]
    state = {"out": Path(spec["work"]) / f"rep{spec['rep']}"}
    if setup is not None:
        setup(spec, state)

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install(
            tracing.Tracer(f"{spec['workload']}:{spec['rep']}"))

    cpu0 = _cpu()
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span("job"):
            sessions = job(spec, state)
    else:
        sessions = job(spec, state)
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": IMPORTED - spec["spawned_at"],
        "wall_s": wall,
        "cpu_s": cpu,
        "sessions": sessions,
        "sessions_per_s": sessions / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    check(spec, state, result)
    if tracer is not None:
        trace = tracer.to_dict(start)
        result["layers"] = tracing.layer_metrics(trace)
        result["trace"] = trace
    if state["out"].exists():
        shutil.rmtree(state["out"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = prep(spec) if spec["mode"] == "prep" else repetition(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
