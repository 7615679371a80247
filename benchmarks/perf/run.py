#!/usr/bin/env python3
"""Fresh-process benchmark of generate -> save -> load -> report -> stream.

Run from the repository root::

    python3 benchmarks/perf/run.py                        # every workload
    python3 benchmarks/perf/run.py --workload gen-100k-w1 --seed 7
    python3 benchmarks/perf/run.py --trace 1 --spans spans.json
    python3 benchmarks/perf/run.py --out a.json ...       # keep raw samples
    python3 benchmarks/perf/run.py --compare b1.json,b2.json h1.json,h2.json

Each repetition is a fresh child process (``child.py``) that runs one
batch job to completion: a closed loop with one caller.  Inputs are built
once per invocation by an untimed prep process.  Repetitions are
interleaved round-robin across the selected workloads until each has used
``--seconds`` of wall time, and every metric is reported as the median over
repetitions with its quartiles.  ``--trace 1`` alternates traced and
untraced repetitions and reports per-layer metrics instead; the metric
names, units and bounds are those of ``BENCHMARK.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import PREP_BACKEND, WORKLOADS  # noqa: E402

#: Longest a single child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

#: Wall budget of one invocation per selected workload, prep included: no
#: child is started, and every running child is killed, once it is spent,
#: so a single-workload run ends well within three minutes.
INVOCATION_LIMIT_S = 150.0

#: Repetitions a workload may fail before the runner stops retrying for one
#: that yields metrics.
MAX_FAILURES = 3

#: Unit, direction and bound of the ``error_rate`` row ``--compare`` adds
#: beside BENCHMARK.json's metrics: any increase is worse.
ERROR_RATE = ("ratio", "lower", 0.0)

#: Reference-kernel time that defines one reference second (see
#: :func:`reference_kernel`); about its time on an idle 2-vCPU Xeon host.
REFERENCE_NOMINAL_S = 0.020

#: Times scale with the kernel's slowdown to this power.  On a shared 2-vCPU
#: Xeon VM, scaling by the full slowdown overcorrected, and over ten seeds
#: of each workload the IQR/median of the per-run wall_s medians was
#: smallest near 0.75 (gen-100k-w1: 21.8% raw, 8.8% at 0.5, 4.1% at 0.75,
#: 7.2% at 1.0; report-400k: 16.6%, 5.2%, 4.1%, 8.0%).
REFERENCE_EXPONENT = 0.75


class ChildError(RuntimeError):
    """A child process failed, timed out or printed no result."""


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- host speed --------------------------------------------------------------
#
# On a shared virtual host, the speed of each vCPU drifts independently, by
# up to 1.7x over tens of seconds, as neighbours load its physical core.
# Repetitions are therefore pinned to the CPUs that ran a fixed kernel
# fastest when the invocation started, and every time metric is reported in
# reference seconds: raw seconds scaled by the median time of that kernel on
# the same CPUs just before and after each of the workload's repetitions,
# relative to REFERENCE_NOMINAL_S and raised to REFERENCE_EXPONENT.  The
# kernel runs here, in the runner, which never imports the program under
# test, so no change to the program can move the yardstick.


_KERNEL_TABLE: Dict[int, int] = {}
_KERNEL_KEYS: List[int] = []


def reference_kernel() -> float:
    """Seconds for 150k dict lookups: interpreter-bound, allocation-free."""
    if not _KERNEL_TABLE:
        _KERNEL_TABLE.update((i * 7919 % 1_000_003, i)
                             for i in range(200_000))
        _KERNEL_KEYS.extend((i * 104729) % 1_000_003 for i in range(150_000))
    lookup = _KERNEL_TABLE.get
    total = 0
    start = time.perf_counter()
    for key in _KERNEL_KEYS:
        value = lookup(key)
        if value is not None:
            total += value ^ key
    return time.perf_counter() - start


def _pin(cpus) -> None:
    """Restrict this process to ``cpus``; left as it is if the host refuses
    (the timings are then merely less steady)."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def reference_samples(cpus: List[int], per_cpu: int = 2) -> List[float]:
    """``per_cpu`` kernel timings on each of ``cpus``."""
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in cpus:
            _pin({cpu})
            samples += [reference_kernel() for _ in range(per_cpu)]
    finally:
        _pin(allowed)
    return samples


def rank_cpus() -> List[int]:
    """Allowed CPUs, fastest reference kernel first."""
    return sorted(os.sched_getaffinity(0), key=lambda cpu: statistics.median(
        reference_samples([cpu], per_cpu=5)))


# -- child processes ---------------------------------------------------------


def _reap_group(pgid: int) -> None:
    """Kill and wait out whatever is left in a child's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(payload: dict, cpus: Optional[List[int]] = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``child.py`` on ``payload``; its parsed JSON result.

    With ``cpus``, the child (and any pool it forks) is pinned to them and
    the result gains ``reference_samples``, reference-kernel times on those
    CPUs just before and just after the child's run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    reference = reference_samples(cpus) if cpus else []
    allowed = os.sched_getaffinity(0)
    if cpus:
        _pin(cpus)  # inherited by the child
    try:
        payload = dict(payload, spawned_at=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(payload)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
    except OSError as exc:
        raise ChildError(f"cannot start: {exc}") from None
    finally:
        _pin(allowed)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise ChildError(f"timed out after {timeout:.0f} s")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        raise ChildError(f"exit {proc.returncode}: {tail[0]}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildError(f"unreadable result: {exc}") from None
    if cpus:
        result["reference_samples"] = reference + reference_samples(cpus)
    return result


# -- one invocation ----------------------------------------------------------


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        p25, median, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = median = p75 = values[0]
    return {"value": median, "p25": p25, "p75": p75, "n": len(values)}


def _cross_checks(name: str, prep: dict, reps: List[dict]) -> Dict[str, bool]:
    """Checks across repetitions; digests are compared, never pinned."""
    checks = {"digests_equal": len({r["digest"] for r in reps}) == 1}
    if "digest" in prep:
        label = ("matches_inline" if WORKLOADS[name].kind == "gen"
                 else "matches_input")
        checks[label] = all(r["digest"] == prep["digest"] for r in reps)
    if WORKLOADS[name].kind == "report":
        checks["summary_equal"] = len({r["summary_sha"] for r in reps}) == 1
    if WORKLOADS[name].kind in ("gen", "report"):
        checks["calibration_equal"] = len(
            {tuple(r["calibration"]) for r in reps}) == 1
    return checks


def run(names: List[str], seed: int, seconds: float, trace: bool,
        denominator: Optional[int] = None) -> dict:
    """Prep, then round-robin repetitions until each workload used
    ``seconds``; raw samples and summaries per workload.

    A workload whose repetitions have all failed (or, with ``trace``, that
    lacks a traced or an untraced one) goes on past ``seconds`` until it
    has them or has failed ``MAX_FAILURES`` times, so that one crashed child
    costs a sample, not the run's metrics.
    """
    deadline = time.monotonic() + INVOCATION_LIMIT_S * len(names)

    def remaining() -> float:
        return min(CHILD_TIMEOUT_S, deadline - time.monotonic())

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    min_reps = 2 if trace else 1
    wanted = {False, True} if trace else {False}
    cpus = rank_cpus()
    state: Dict[str, dict] = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            base = {
                "workload": name, "kind": workload.kind, "seed": seed,
                "denominator": denominator or workload.denominator,
                "backend": workload.backend, "workers": workload.workers,
                "prep_backend": PREP_BACKEND,
                "input": str(work / name / "input"),
                "work": str(work / name),
            }
            (work / name).mkdir()
            entry = state[name] = {"base": base, "reps": [], "errors": [],
                                   "spent": 0.0, "durations": [],
                                   "prep_failures": 0,
                                   "cpus": cpus[:workload.workers]}
            while entry["prep_failures"] < MAX_FAILURES:
                try:
                    entry["prep"] = spawn(dict(base, mode="prep"),
                                          timeout=remaining())
                    break
                except ChildError as exc:
                    entry["errors"].append(f"prep: {exc}")
                    entry["prep_failures"] += 1

        while remaining() > 0:
            progressed = False
            for name in names:
                entry = state[name]
                if "prep" not in entry or remaining() <= 0:
                    continue
                done = len(entry["durations"])
                estimate = (statistics.median(entry["durations"])
                            if entry["durations"] else 0.0)
                usable = {r["traced"] for r in entry["reps"]} >= wanted
                failures = done - len(entry["reps"])
                if (done >= min_reps and entry["spent"] + estimate > seconds
                        and (usable or failures >= MAX_FAILURES)):
                    continue
                traced = trace and done % 2 == 0
                started = time.monotonic()
                try:
                    rep = spawn(dict(entry["base"], mode="rep", rep=done,
                                     trace=traced), entry["cpus"],
                                timeout=remaining())
                except ChildError as exc:
                    entry["errors"].append(f"rep {done}: {exc}")
                    rep = None
                elapsed = time.monotonic() - started
                entry["spent"] += elapsed
                entry["durations"].append(elapsed)
                if rep is not None:
                    rep["traced"] = traced
                    entry["reps"].append(rep)
                progressed = True
            if not progressed:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    return {name: _summarize(name, state[name], trace) for name in names}


#: End-to-end metrics each repetition reports (raw, before scaling).
REP_METRICS = ("wall_s", "cpu_s", "sessions_per_s", "peak_rss_mb",
               "setup_s", "artifact_mb")


def to_reference(values: Dict[str, float], reference_s: float
                 ) -> Dict[str, float]:
    """Scale times (``*_s``) and rates (``*_per_s``) to reference seconds;
    sizes, counts and shares pass through."""
    factor = (REFERENCE_NOMINAL_S / reference_s) ** REFERENCE_EXPONENT
    return {name: (value / factor if name.endswith("_per_s")
                   else value * factor if name.endswith("_s") else value)
            for name, value in values.items()}


def _summarize(name: str, entry: dict, trace: bool) -> dict:
    reps = entry["reps"]
    reference_s = statistics.median(
        s for r in reps for s in r["reference_samples"]) if reps else None
    checked_bad = 0
    for index, rep in enumerate(reps):
        bad = [k for k, ok in rep["checks"].items() if not ok]
        if bad:
            entry["errors"].append(f"rep {index}: check failed: {bad}")
            checked_bad += 1
        rep["raw"] = {m: rep.pop(m) for m in REP_METRICS}
        rep["metrics"] = to_reference(rep["raw"], reference_s)
    checks = _cross_checks(name, entry.get("prep", {}), reps) if reps else {}
    prep_failures = entry["prep_failures"]
    attempted = prep_failures + len(entry["durations"]) + len(checks)
    failed = (prep_failures + len(entry["durations"]) - len(reps)
              + checked_bad + sum(not ok for ok in checks.values()))

    # A repetition that failed a check still ran the whole job, so its
    # times count; the failure shows in ``failed`` and ``correct``.
    untraced = [r for r in reps if not r["traced"]]
    summary = {m: _quartiles([r["metrics"][m] for r in untraced])
               for m in REP_METRICS if untraced}
    raw = {m: _quartiles([r["raw"][m] for r in untraced])
           for m in REP_METRICS if untraced}
    traced = [r for r in reps if r["traced"]]
    layers: Dict[str, dict] = {}
    if traced:
        scaled = [to_reference(r["layers"], reference_s) for r in traced]
        for metric in scaled[0]:
            layers[metric] = _quartiles([s[metric] for s in scaled])
        if untraced:
            overhead = (
                statistics.median(r["metrics"]["wall_s"] for r in traced)
                - statistics.median(r["metrics"]["wall_s"] for r in untraced))
            layers["trace.overhead_s"] = {"value": overhead, "p25": overhead,
                                          "p75": overhead, "n": 1}
    return {
        "attempted": attempted, "failed": failed, "errors": entry["errors"],
        "checks": checks, "prep": entry.get("prep", {}),
        "reference_s": reference_s, "cpus": entry["cpus"],
        "digest": reps[0]["digest"] if reps else None,
        "reps": [{k: v for k, v in r.items() if k not in ("trace", "layers")}
                 for r in reps],
        "metrics": summary, "raw": raw, "layers": layers,
        "traces": [r["trace"] for r in traced],
        "absent": sorted({t for r in traced for t in r["trace"]["absent"]}),
    }


# -- reporting ---------------------------------------------------------------


def _host(results: dict) -> dict:
    prep = next((r["prep"] for r in results.values() if r["prep"]), {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": prep.get("python", platform.python_version()),
            "numpy": prep.get("numpy", "unknown"),
            "machine": platform.machine()}


def _row(name: str, unit: str, q: dict) -> str:
    return (f"  {name:<40} {q['value']:>12.4f} {unit:<6} "
            f"[{q['p25']:.4f} .. {q['p75']:.4f}] n={q['n']}")


def render(results: dict, spec: dict, trace: bool) -> str:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    lines = []
    for name, res in results.items():
        lines.append(f"{name}: attempted {res['attempted']} "
                     f"failed {res['failed']} digest "
                     f"{(res['digest'] or '-')[:16]}")
        table = res["layers"] if trace else res["metrics"]
        for m in metrics:
            if m["name"] in table:
                lines.append(_row(m["name"], m["unit"], table[m["name"]]))
        for metric, q in res["raw"].items():
            if metric.endswith("_s"):
                lines.append(_row(f"unscaled {metric}", "", q))
        for error in res["errors"]:
            lines.append(f"  ERROR {error}")
        for target in res["absent"]:
            lines.append(f"  absent wrapper target: {target}")
    return "\n".join(lines)


def result_line(results: dict, spec: dict, trace: bool) -> Optional[dict]:
    """The contract line; None when no repetition produced metrics."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for name, res in results.items():
        table = res["layers"] if trace else res["metrics"]
        prefix = "" if len(results) == 1 else f"{name}:"
        for m in metrics:
            if m["name"] not in table:
                return None
            out[prefix + m["name"]] = {"value": table[m["name"]]["value"],
                                       "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


# -- compare -----------------------------------------------------------------


def _iqr_share(q: dict) -> float:
    return (q["p75"] - q["p25"]) / abs(q["value"]) if q["value"] else 0.0


def verdict(base: dict, head: dict, better: str, bound: float,
            base_samples: List[float], head_samples: List[float]) -> str:
    """better / same / worse against ``bound``; ``unresolved`` when either
    side's IQR is wider than the bound, unless every run of one side beats
    every run of the other."""
    if base["value"] == 0:
        change = 0.0 if head["value"] == 0 else float("inf")
    else:
        change = (head["value"] - base["value"]) / abs(base["value"])
    loss = change if better == "lower" else -change
    separated = (max(head_samples) < min(base_samples)
                 or min(head_samples) > max(base_samples))
    if (_iqr_share(base) > bound or _iqr_share(head) > bound) \
            and not separated:
        return "unresolved"
    if loss > bound:
        return "worse"
    if loss < -bound:
        return "better"
    return "same"


def _load_runs(paths: str) -> List[dict]:
    """One side of ``--compare``: comma-separated ``--out`` files."""
    runs = []
    for path in paths.split(","):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def compare(base_paths: str, head_paths: str, spec: dict) -> int:
    """Verdict rows over per-run medians: each ``--out`` file is one run,
    and a workload's samples are the runs that contain it."""
    base, head = _load_runs(base_paths), _load_runs(head_paths)
    names = list(dict.fromkeys(n for r in base for n in r["workloads"]))
    rows = []

    def row(name, metric, unit, better, bound, pick):
        samples = [[v for v in map(pick, side) if v is not None]
                   for side in (base, head)]
        if all(samples):
            qa, qb = (_quartiles(s) for s in samples)
            rows.append((name, metric, unit, qa, qb,
                         verdict(qa, qb, better, bound, *samples)))

    for name in names:
        for m in spec["end_to_end"]:
            row(name, m["name"], m["unit"], m["better"], m["bound"],
                lambda r, n=name, k=m["name"]: r["workloads"].get(n, {})
                .get("metrics", {}).get(k, {}).get("value"))
        row(name, "error_rate", *ERROR_RATE,
            lambda r, n=name: (r["workloads"][n]["failed"]
                               / r["workloads"][n]["attempted"]
                               if n in r["workloads"] else None))

    print(f"{'workload':<14} {'metric':<16} {'base median [IQR]':>30} "
          f"{'head median [IQR]':>30}  verdict")
    for name, metric, unit, qa, qb, v in rows:
        cells = [f"{q['value']:.4f} [{q['p25']:.4f}..{q['p75']:.4f}]"
                 for q in (qa, qb)]
        print(f"{name:<14} {metric:<16} {cells[0]:>30} {cells[1]:>30}  "
              f"{v} ({unit})")
    worse = sum(row[-1] == "worse" for row in rows)
    print(json.dumps({"rows": len(rows), "worse": worse,
                      "unresolved": sum(r[-1] == "unresolved" for r in rows)}))
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall budget per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced repetitions and report "
                             "per-layer metrics")
    parser.add_argument("--out", help="write samples and summaries as JSON")
    parser.add_argument("--spans", help="write the traced spans as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two sets of runs, each a comma-"
                             "separated list of --out files, and exit")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {SPEC_FILE}: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the running child's process group is
    # reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds or spec["run_seconds"]
    trace = bool(args.trace)
    results = run(names, args.seed, seconds, trace)
    print(render(results, spec, trace))
    for name, res in results.items():
        for error in res["errors"]:
            print(f"{name}: {error}", file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"host": _host(results), "seed": args.seed,
                       "seconds": seconds, "trace": trace,
                       "workloads": {n: {k: v for k, v in r.items()
                                         if k != "traces"}
                                     for n, r in results.items()}},
                      fh, indent=1)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed,
                       "traces": [t for r in results.values()
                                  for t in r["traces"]]}, fh)

    line = result_line(results, spec, trace)
    if line is None:
        print("no repetition produced every metric", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
