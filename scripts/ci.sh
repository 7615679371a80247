#!/usr/bin/env bash
# Tier-1 gate: the full unit/integration suite, lint, the generation,
# ledger, monitor, cache and report smokes, and a paired benchmarks/perf
# run of the working tree against the commit it changes (HEAD, or HEAD~1
# when the tree is clean, so it needs a git checkout with that commit).
# Writes only under a temporary directory.
#
# Run from the repository root:  bash scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "== determinism & invariant lint (repro.lint) =="
python -m repro lint src

echo "== lint self-check (a seeded violation must fail the gate) =="
mkdir -p "$SCRATCH/seeded"
printf 'import random\n\ndef pick(xs):\n    return random.choice(xs)\n' \
    > "$SCRATCH/seeded/workload_patch.py"
if python -m repro lint "$SCRATCH/seeded" > /dev/null 2>&1; then
    echo "lint self-check FAILED: seeded 'import random' was not flagged"
    exit 1
fi
echo "lint self-check ok (seeded violation rejected)"

# Third-party tooling is optional in this container: gate on availability
# so the pipeline stays runnable offline, but never silently skip.
echo "== ruff (gated on availability) =="
if command -v ruff > /dev/null 2>&1; then
    ruff check src tests
    ruff format --check src/repro/lint src/repro/obs
else
    echo "ruff not installed; skipping (pip install -e '.[dev]' to enable)"
fi

echo "== mypy (gated on availability) =="
if command -v mypy > /dev/null 2>&1; then
    mypy src/repro/lint src/repro/obs src/repro/sched src/repro/analytics
else
    echo "mypy not installed; skipping (pip install -e '.[dev]' to enable)"
fi

echo "== analytics coverage (gated on pytest-cov availability) =="
if python -c "import pytest_cov" > /dev/null 2>&1; then
    python -m pytest tests/test_analytics_sketches.py \
        tests/test_analytics_differential.py -q \
        --cov=repro.analytics --cov-report=term-missing:skip-covered \
        --cov-fail-under=90
else
    echo "pytest-cov not installed; skipping (pip install -e '.[dev]' to enable)"
fi

echo "== streaming-vs-batch smoke (exact aggregates bit for bit; store == batched == per-event intake) =="
python - <<'PY'
import numpy as np

import repro
from repro.analytics import StreamingAnalytics, replay_store_events
from repro.core.classify import CATEGORIES, classify_store
from repro.core.timeseries import daily_totals

store = repro.generate(
    repro.ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004),
    backend="inline", workers=1,
).store
analytics = StreamingAnalytics()
analytics.ingest_store(store)

batch_mix = np.bincount(classify_store(store), minlength=len(CATEGORIES))
mix = analytics.category_counts()
for code, category in enumerate(CATEGORIES):
    if mix[category.value] != int(batch_mix[code]):
        raise SystemExit(
            f"category mix diverged at {category.value}: "
            f"streaming {mix[category.value]} vs batch {int(batch_mix[code])}")
batch_daily = daily_totals(store)
if not np.array_equal(analytics.sessions_per_day(len(batch_daily)), batch_daily):
    raise SystemExit("sessions-per-day diverged between streaming and batch")
# __eq__ compares every sketch: HLL registers, top-k tables, exact counters.
# The top-k clients table must evict, so the fold order is under test.
if analytics.topk_clients.error() <= 0:
    raise SystemExit("top-k clients never evicted: the smoke no longer "
                     "covers eviction order")
events = replay_store_events(store)
by_events = StreamingAnalytics()
by_events.feed_many(events)
if by_events != analytics:
    raise SystemExit("ingest_store and feed_many(replay_store_events) "
                     "left different StreamingAnalytics state")
per_event = StreamingAnalytics()
for event in events:
    per_event.feed(event)
if per_event != by_events:
    raise SystemExit("a feed() per event and one feed_many left different "
                     "StreamingAnalytics state")
print(f"streaming-vs-batch ok ({analytics.session_count():,} sessions, "
      f"mix + daily totals exact, top-k error "
      f"{analytics.topk_clients.error()}, store intake == feed_many == "
      f"feed per event)")
PY

# Every stage that starts a pool runs under coreutils timeout, so a
# wedged pool fails its stage in minutes rather than waiting out the
# scheduler's ~10 min stall guard.  On a 2-vCPU host each command takes
# 1-2 s (bound 60 s) and the memory smoke ~9 s (bound 300 s): 30x or
# more headroom for a loaded runner.
echo "== backend matrix smoke (CLI default / inline w=1 / pool w=1 / w=2 / w=4 byte-identical) =="
timeout 60 env -u REPRO_WORKERS python -m repro generate --scale 80000 \
    --hash-scale 0.004 --seed 7 --out "$SCRATCH/cli_default.npz" \
    > /dev/null 2> /dev/null
timeout 60 python - "$SCRATCH/cli_default.npz" <<'PY'
import sys

import repro

config = repro.ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)
digests = {
    f"{name} w={workers}": repro.generate(
        config, backend=name, workers=workers
    ).store.content_digest()
    for name, workers in (("inline", 1), ("pool", 1), ("pool", 2), ("pool", 4))
}
digests["CLI default"] = repro.load(sys.argv[1], config).store.content_digest()
if len(set(digests.values())) != 1:
    raise SystemExit(f"backend matrix diverged: {digests}")
print(f"backend matrix ok (sha256 {next(iter(digests.values()))[:16]}... "
      f"x{len(digests)})")
PY

echo "== run-ledger determinism (inline w=1 vs pool w=2, strip-identical; pool ledger == fold of its trace) =="
timeout 60 python -m repro generate --scale 80000 --hash-scale 0.004 --seed 7 \
    --workers 1 --backend inline --out "$SCRATCH/ledger_a.npz" \
    --ledger "$SCRATCH/ledger_a.jsonl" > /dev/null 2> /dev/null
timeout 60 python -m repro generate --scale 80000 --hash-scale 0.004 --seed 7 \
    --workers 2 --backend pool --out "$SCRATCH/ledger_b.npz" \
    --ledger "$SCRATCH/ledger_b.jsonl" --trace "$SCRATCH/top_trace.jsonl" \
    > /dev/null 2> /dev/null
python - "$SCRATCH" <<'PY'
import json
import sys

from repro.obs import SchedFold, read_ledger_jsonl, read_trace_jsonl, \
    strip_volatile_records, validate_ledger

scratch = sys.argv[1]
ledgers = {name: read_ledger_jsonl(f"{scratch}/ledger_{name[0]}.jsonl")
           for name in ("a_inline_w1", "b_pool_w2")}
for name, records in ledgers.items():
    problems = validate_ledger(records)
    if problems:
        raise SystemExit(f"{name} ledger invalid: {problems[:5]}")
stripped = [json.dumps(strip_volatile_records(r), sort_keys=True)
            for r in ledgers.values()]
if stripped[0] != stripped[1]:
    raise SystemExit("ledgers diverge after stripping volatile fields")
finals = [next(r for r in records if r["record"] == "final")
          for records in ledgers.values()]
if finals[0]["store_sha256"] != finals[1]["store_sha256"]:
    raise SystemExit("final store sha256 differs between worker counts")
# ledger_b and top_trace.jsonl come from the same pool run: its sched,
# task and heartbeat records must be the fold of the trace's events.
fold = SchedFold()
for event in read_trace_jsonl(f"{scratch}/top_trace.jsonl"):
    fold.feed(event)
kinds = ("sched", "task", "heartbeat")
rebuilt = [r for r in fold.records() if r["record"] in kinds]
written = [r for r in ledgers["b_pool_w2"] if r["record"] in kinds]
if json.dumps(rebuilt, sort_keys=True) != json.dumps(written, sort_keys=True):
    raise SystemExit("pool ledger's sched/task/heartbeat records differ "
                     "from the fold of its trace")
a = ledgers["a_inline_w1"]
beats = sum(1 for r in a if r["record"] == "heartbeat")
tasks = sum(1 for r in a if r["record"] == "task")
print(f"run-ledger ok ({len(a)} records, {tasks} task rows, "
      f"{beats} heartbeats, store sha256 "
      f"{finals[0]['store_sha256'][:16]}..., stripped identical; "
      f"{len(written)} pool records == fold of its trace)")
PY

echo "== repro top smoke (--once over the recorded pool trace) =="
TOP_FRAME="$(python -m repro top --once --input "$SCRATCH/top_trace.jsonl")"
echo "$TOP_FRAME" | grep -q "pool-" \
    || { echo "repro top rendered no pool worker row"; exit 1; }
echo "repro top smoke ok (pool worker rows rendered)"

echo "== sharded generation smoke (validate, 2 workers, with metrics + trace) =="
timeout 60 python -m repro validate --scale 40000 --workers 2 \
    --metrics "$SCRATCH/ci_metrics.json" --trace "$SCRATCH/ci_trace.jsonl" \
    2> /dev/null
python - "$SCRATCH/ci_metrics.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    spans = json.load(fh)["spans"]
stages = ("population", "targets", "calendar", "campaigns", "writers")
missing = [s for s in stages if f"generate/plan/{s}" not in spans]
if missing:
    raise SystemExit(f"plan stage spans missing: {missing}")
print("plan stages (wall ms):")
for path in ["generate/plan"] + [f"generate/plan/{s}" for s in stages]:
    print(f"  {path:28s} {spans[path]['wall'] * 1000:8.1f}")
PY

echo "== flight-recorder smoke (schema-validate the traced run's JSONL) =="
python -m repro monitor --input "$SCRATCH/ci_trace.jsonl" --validate \
    --interval 86400 > /dev/null

echo "== monitor --input smoke (default interval; header sessions == generate.merged; | head -1 exits 0) =="
MONITOR_HEAD="$(timeout 60 python -m repro monitor \
    --input "$SCRATCH/ci_trace.jsonl" | head -1)" \
    || { echo "monitor --input | head -1 exited non-zero"; exit 1; }
python - "$SCRATCH/ci_trace.jsonl" "$MONITOR_HEAD" <<'PY'
import json
import re
import sys

path, header = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    merged = [event["data"]["sessions"] for event in map(json.loads, fh)
              if event["kind"] == "generate.merged"]
shown = re.search(r"([\d,]+) sessions", header)
if len(merged) != 1 or shown is None \
        or int(shown.group(1).replace(",", "")) != merged[0]:
    raise SystemExit(f"monitor header {header!r} vs generate.merged "
                     f"sessions {merged}")
print(f"monitor --input ok ({merged[0]:,} sessions = generate.merged)")
PY

echo "== EXPERIMENTS.md is current (regenerated from the paper-claims table) =="
python scripts/make_experiments.py --out "$SCRATCH/EXPERIMENTS.md" > /dev/null
diff -u EXPERIMENTS.md "$SCRATCH/EXPERIMENTS.md" \
    || { echo "EXPERIMENTS.md is stale: run python scripts/make_experiments.py"; exit 1; }
echo "EXPERIMENTS.md matches a fresh regeneration"

echo "== farm-health monitor smoke (live demo must raise a fresh-hash alert) =="
MONITOR_OUT="$(python -m repro monitor --duration 3600 --pots 6)"
echo "$MONITOR_OUT" | grep -q "FRESH-HASH" \
    || { echo "monitor demo raised no fresh-hash alert"; exit 1; }
echo "$MONITOR_OUT" | grep -c "FRESH-HASH\|LIVENESS-DOWN\|RATE-DRIFT" \
    | xargs -I{} echo "monitor smoke ok ({} alert lines)"

echo "== dataset cache round-trip smoke (cold generate, warm hit) =="
CACHE_DIR="$SCRATCH/cache"
mkdir -p "$CACHE_DIR"
python -m repro report --scale 40000 --cache-dir "$CACHE_DIR" > /dev/null
WARM_METRICS="$(python -m repro report --scale 40000 --cache-dir "$CACHE_DIR" \
    --metrics 2>&1 > /dev/null)"
echo "$WARM_METRICS" | grep "cache.hits" \
    || { echo "warm run did not hit the cache"; exit 1; }

echo "== npz v2 smoke (pickle-free members, digest survives save + load) =="
python -m repro generate --scale 40000 --out "$SCRATCH/v2.npz" \
    --ledger "$SCRATCH/v2_ledger.jsonl" > /dev/null 2> /dev/null
python - "$SCRATCH/v2.npz" "$SCRATCH/v2_ledger.jsonl" <<'PY'
import sys

import numpy as np

import repro
from repro.obs import read_ledger_jsonl

path, ledger_path = sys.argv[1:]
with np.load(path, allow_pickle=False) as data:
    members = {name: data[name] for name in data.files}
if int(members["format_version"][0]) != 2:
    raise SystemExit(f"{path}: format_version {members['format_version']}")
final = next(r for r in read_ledger_jsonl(ledger_path) if r["record"] == "final")
loaded = repro.load(path).store.content_digest()
if loaded != final["store_sha256"]:
    raise SystemExit(f"digest moved across save + load: generated "
                     f"{final['store_sha256'][:16]}..., loaded {loaded[:16]}...")
print(f"npz v2 ok ({len(members)} members, none pickled, "
      f"sha256 {loaded[:16]}... generated == loaded)")
PY
python -m repro report --scale 40000 --load "$SCRATCH/v2.npz" > /dev/null
# JSONL round trip at generated scale: read_jsonl (StoreBuilder.append, row
# by row) and write_jsonl must give back the same text and the same store.
python -m repro generate --scale 80000 --seed 7 --out "$SCRATCH/trace.jsonl.gz" \
    > /dev/null 2> /dev/null
python - "$SCRATCH/trace.jsonl.gz" "$SCRATCH/again.jsonl.gz" <<'PY'
import gzip
import sys

from repro.store.io import read_jsonl, write_jsonl

first, again = sys.argv[1:]
store = read_jsonl(first)
write_jsonl(store, again)
text = [gzip.open(path, "rt", encoding="utf-8").read() for path in (first, again)]
if text[0] != text[1]:
    raise SystemExit(f"{first}: read_jsonl + write_jsonl changed the text")
digests = {store.content_digest(), read_jsonl(again).content_digest()}
if len(digests) != 1:
    raise SystemExit(f"{first}: the two reads give digests {sorted(digests)}")
print(f"jsonl round trip ok ({len(store)} records, equal text, "
      f"sha256 {digests.pop()[:16]}...)")
PY

echo "== generate memory smoke (1/400 peak RSS, inline and pool w=2; DESIGN §6c) =="
timeout 300 python - "$SCRATCH/mem400.npz" <<'PY'
import resource
import subprocess
import sys

# Each bound is ~10% above the highest peak measured on a 2-vCPU x86-64
# host.  Inline: 203-215 MB; holding every shard store through the final
# merge peaked at 260-265 MB.  Pool w=2: 186-203 MB; shipping each shard
# as a whole store with its table copies peaked at 227-235 MB.
# RUSAGE_CHILDREN is a high-water mark over every child so far, so the
# tighter bound runs first.
for workers, bound_mb in (("2", 223), ("1", 236)):
    subprocess.run([sys.executable, "-m", "repro", "generate", "--scale", "400",
                    "--seed", "2023", "--workers", workers, "--out", sys.argv[1]],
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if peak_mb > bound_mb:
        raise SystemExit(f"generate --scale 400 --workers {workers} peaked "
                         f"at {peak_mb:.1f} MB > {bound_mb} MB")
    print(f"memory smoke ok (--workers {workers}: peak {peak_mb:.1f} MB "
          f"<= {bound_mb} MB)")
PY
rm -f "$SCRATCH/mem400.npz"

echo "== report metamorphic smoke (store == row-permuted == 3-way split + merge) =="
python - <<'PY'
from dataclasses import replace

import numpy as np

import repro
from repro.core.context import AnalysisContext
from tests.report_digest import report_digest, split_and_merge, take_rows

dataset = repro.generate(repro.ScenarioConfig.from_denominator(40000, seed=2023),
                         backend="inline", workers=1)
store = dataset.store
rows = np.random.default_rng(2023).permutation(len(store))
digests = {
    "store": report_digest(dataset),
    "row-permuted": report_digest(replace(dataset, store=take_rows(store, rows))),
    "split+merge": report_digest(replace(dataset, store=split_and_merge(store))),
}
if len(set(digests.values())) != 1:
    raise SystemExit(f"report + validate digests diverged: {digests}")
ctx = AnalysisContext.from_dataset(dataset)
tables = {"client_pot": ctx.client_pots(), "client_day": ctx.client_days()}
print(f"report metamorphic ok (sha256 {digests['store'][:16]}... x3; "
      f"{len(store):,} sessions, {len(ctx.client_table.ips):,} clients, "
      + ", ".join(f"{name} {len(t.keys):,} rows / {t.keys.nbytes:,} B"
                  for name, t in tables.items()) + ")")
PY

echo "== paper benches need no timing plugin (fixture plan only, no data) =="
python -m pytest benchmarks --setup-plan -p no:benchmark \
    --ignore=benchmarks/perf -q > "$SCRATCH/setup_plan.txt" \
    || { cat "$SCRATCH/setup_plan.txt"; exit 1; }
echo "fixture plan ok ($(grep -c '::test_' "$SCRATCH/setup_plan.txt")" \
    "paper benches, every fixture resolved)"

echo "== traced perf smoke (gen-10k-w1 --trace 1: the harness's plan and finalize hooks resolve) =="
# The paired gate below runs untraced, so only this stage notices when a
# name benchmarks/perf/tracing.py wraps (shards._plan_for,
# TraceGenerator._build_day_buckets / _realize_campaigns / _finalize) or
# reads (plan.gen.realized) stops resolving: the run fails or the layer
# reads 0.
python benchmarks/perf/run.py --workload gen-10k-w1 --seconds 1 --trace 1 \
    > "$SCRATCH/traced.out" 2> "$SCRATCH/traced.err" \
    || { cat "$SCRATCH/traced.out" "$SCRATCH/traced.err"
         echo "traced perf smoke FAILED: run.py exited non-zero"; exit 1; }
python - "$SCRATCH/traced.out" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    metrics = json.loads(fh.read().splitlines()[-1])["metrics"]
need = ("workload.plan_s", "workload.plan.day_buckets_s",
        "workload.plan.realize_campaigns_s", "workload.finalize_s")
zero = [m for m in need if not metrics.get(m, {}).get("value", 0) > 0]
if zero:
    raise SystemExit(f"traced perf smoke FAILED: not > 0: {zero}")
print("traced perf smoke ok ("
      + ", ".join(f"{m} {metrics[m]['value']:.3f} s" for m in need) + ")")
PY

echo "== paired perf gate (working tree vs its parent commit: gen-10k-w1 x3, gen-100k-pool1 x2, stream-10k x3) =="
# Head is the working tree's files.  Base is the commit they change: HEAD
# while the tree has uncommitted or untracked files, HEAD~1 once it is
# clean.  Both are fresh copies under $SCRATCH without bytecode caches,
# and each runs its own benchmarks/perf/run.py, base and head
# alternating.  gen-10k-w1 is where fixed per-run costs show;
# gen-100k-pool1 keeps the scheduler's pool backend gated; stream-10k
# gates the streaming analytics intake (repro.analytics).  Its jobs take
# ~0.05 s, so one pair cannot tell its bound from noise: it runs in three
# pairs, like gen-10k-w1.  Head's
# --compare decides: a metric worse than its BENCHMARK.json bound, or a
# higher error rate, fails the stage.
if git diff --quiet HEAD -- 2> /dev/null \
        && [ -z "$(git ls-files --others --exclude-standard)" ]; then
    BASE_REV='HEAD~1'
else
    BASE_REV='HEAD'
fi
git rev-parse --verify --quiet "$BASE_REV^{commit}" > /dev/null \
    || { echo "paired perf gate FAILED: $BASE_REV does not exist, so" \
              "there is no base to compare against"; exit 1; }
PERF="$SCRATCH/perf"
mkdir -p "$PERF/base" "$PERF/head"
git archive "$BASE_REV" | tar -x -C "$PERF/base"
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' path; do
          if [ -f "$path" ]; then printf '%s\0' "$path"; fi
      done \
    | tar --null -T - -cf - | tar -x -C "$PERF/head"
if find "$PERF" -name __pycache__ | grep -q .; then
    echo "paired perf gate FAILED: a copy carries __pycache__"; exit 1
fi
runs=0
for workload in gen-10k-w1 gen-10k-w1 gen-10k-w1 \
                gen-100k-pool1 gen-100k-pool1 \
                stream-10k stream-10k stream-10k; do
    runs=$((runs + 1))
    for side in base head; do
        (cd "$PERF/$side" && python benchmarks/perf/run.py \
            --workload "$workload" --seconds 4 \
            --out "$PERF/$side$runs.json" > "$PERF/$side$runs.log" 2>&1) \
            || { cat "$PERF/$side$runs.log"
                 echo "paired perf gate FAILED: $side run $runs"; exit 1; }
    done
done
python "$PERF/head/benchmarks/perf/run.py" \
    --compare "$(seq -s, -f "$PERF/base%g.json" "$runs")" \
    "$(seq -s, -f "$PERF/head%g.json" "$runs")" \
    || { echo "paired perf gate FAILED: head is worse than $BASE_REV"
         exit 1; }
