"""Self-tests of the benchmark runner, at scale 1/80000 (~5k sessions).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

DENOMINATOR = 80000
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def plain():
    return run.run(list(run.WORKLOADS), 7, 0.5, False, DENOMINATOR)


@pytest.fixture(scope="module")
def traced():
    return run.run(list(run.WORKLOADS), 7, 0.5, True, DENOMINATOR)


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"][1] == "benchmarks/perf/run.py"
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_end_to_end_metric_is_reported_with_its_unit(spec, plain):
    line = run.result_line(plain, spec, trace=False)
    assert line["correct"] and line["failed"] == 0
    for name in run.WORKLOADS:
        for m in spec["end_to_end"]:
            reported = line["metrics"][f"{name}:{m['name']}"]
            assert reported["unit"] == m["unit"]
            assert reported["value"] > 0


def test_every_per_layer_metric_is_reported_with_its_unit(spec, traced):
    line = run.result_line(traced, spec, trace=True)
    assert line["correct"]
    for name in run.WORKLOADS:
        for m in spec["per_layer"]:
            assert line["metrics"][f"{name}:{m['name']}"]["unit"] == m["unit"]
        assert traced[name]["absent"] == []


def test_single_workload_cli_prints_the_contract_line(spec, capsys):
    assert run.main(["--workload", "gen-10k-w1", "--seed", "3",
                     "--seconds", "1", "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "gen-10k-w1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- reference seconds ------------------------------------------------------


def test_times_and_rates_scale_to_reference_seconds():
    raw = {"wall_s": 2.0, "sessions_per_s": 100.0, "peak_rss_mb": 50.0,
           "store.npz_bytes": 7, "trace.child_coverage_pct": 99.0}
    factor = 0.5 ** (1 / run.REFERENCE_EXPONENT)
    slow_host = run.to_reference(raw, run.REFERENCE_NOMINAL_S / factor)
    assert slow_host == {"wall_s": 1.0, "sessions_per_s": 200.0,
                         "peak_rss_mb": 50.0, "store.npz_bytes": 7,
                         "trace.child_coverage_pct": 99.0}


def test_runner_never_imports_the_program_under_test():
    probe = ("import sys; sys.path.insert(0, 'benchmarks/perf'); import run; "
             "run.reference_kernel(); print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'repro'))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# -- correctness checks -----------------------------------------------------


def test_digest_mismatch_raises_error_rate(monkeypatch):
    real_spawn = run.spawn

    def tampered(payload, cpus=None, **kwargs):
        result = real_spawn(payload, cpus, **kwargs)
        if payload["mode"] == "rep":
            result["digest"] = "0" * 64
            result["checks"]["round_trip"] = False
        return result

    monkeypatch.setattr(run, "spawn", tampered)
    results = run.run(["gen-100k-pool1"], 7, 0.5, False, DENOMINATOR)
    res = results["gen-100k-pool1"]
    assert res["checks"]["matches_inline"] is False
    assert res["failed"] >= 1 + res["metrics"]["wall_s"]["n"]
    line = run.result_line(results, run.load_spec(), trace=False)
    # Failed checks are reported, and the metrics still are.
    assert line["correct"] is False
    assert line["metrics"]["wall_s"]["value"] > 0


def test_crashed_children_are_retried_and_counted(monkeypatch):
    real_spawn = run.spawn
    crashed = []

    def flaky(payload, cpus=None, **kwargs):
        if payload["mode"] not in crashed:
            crashed.append(payload["mode"])
            raise run.ChildError("exit -9: no stderr")
        return real_spawn(payload, cpus, **kwargs)

    monkeypatch.setattr(run, "spawn", flaky)
    results = run.run(["gen-100k-pool1"], 7, 0.01, False, DENOMINATOR)
    res = results["gen-100k-pool1"]
    assert crashed == ["prep", "rep"]
    assert res["errors"] == ["prep: exit -9: no stderr",
                             "rep 0: exit -9: no stderr"]
    assert res["failed"] == 2
    line = run.result_line(results, run.load_spec(), trace=False)
    assert line["correct"] is False
    assert line["metrics"]["wall_s"]["value"] > 0


# -- tracing ----------------------------------------------------------------


def test_absent_wrapper_target_is_reported_not_raised(monkeypatch):
    layer = types.ModuleType("fake_layer")

    class Engine:
        def step(self, x):
            return x + 1

    layer.Engine = Engine
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    tracer = tracing.Tracer("fake:0")
    assert tracer.wrap("fake_layer:Engine.step", "fake.step")
    assert not tracer.wrap("fake_layer:Engine.renamed", "fake.renamed")
    assert not tracer.wrap("fake_layer_gone:step", "fake.gone")
    assert tracer.absent == ["fake_layer:Engine.renamed", "fake_layer_gone:step"]
    with tracer.span("job"):
        assert Engine().step(1) == 2
    metrics = tracing.layer_metrics(tracer.to_dict(0.0))
    assert metrics["workload.plan_s"] == 0.0
    assert [s["name"] for s in tracer.to_dict(0.0)["spans"]] == \
        ["job", "fake.step"]


def test_traced_children_cover_the_top_level_span(traced):
    for name, res in traced.items():
        assert res["traces"], name
        for trace in res["traces"]:
            spans = trace["spans"]
            job = next(i for i, s in enumerate(spans) if s["name"] == "job")
            covered = sum(s["end"] - s["start"] for s in spans
                          if s["parent"] == job)
            total = spans[job]["end"] - spans[job]["start"]
            assert covered >= 0.9 * total, (name, covered, total)
            assert trace["trace_id"].startswith(f"{name}:")
        assert res["layers"]["trace.child_coverage_pct"]["value"] >= 90.0


def test_traced_layers_land_on_their_workloads(traced):
    gen = traced["gen-100k-w1"]["layers"]
    assert gen["workload.plan_s"]["value"] > 0
    assert gen["sched.tasks"]["value"] == gen["store.merge_calls"]["value"]
    assert gen["store.npz_bytes"]["value"] > 0
    report = traced["report-400k"]["layers"]
    assert report["core.report_s"]["value"] > 0
    assert report["store.load_npz_s"]["value"] > 0
    assert report["workload.plan_s"]["value"] == 0
    stream = traced["stream-10k"]["layers"]
    assert stream["analytics.sessions_observed"]["value"] > 0
    assert stream["core.report_s"]["value"] == 0


# -- compare ----------------------------------------------------------------


def _runs(tmp_path, label, samples_by_metric, failed=0):
    """One ``--out``-shaped file per sample; the comma-joined paths."""
    paths = []
    for i, values in enumerate(zip(*samples_by_metric.values())):
        path = tmp_path / f"{label}{i}.json"
        path.write_text(json.dumps({"workloads": {"w": {
            "attempted": 10, "failed": failed,
            "metrics": {m: {"value": v}
                        for m, v in zip(samples_by_metric, values)},
        }}}))
        paths.append(str(path))
    return ",".join(paths)


def _compare(tmp_path, base, head, spec, capsys, failed=(0, 0)):
    status = run.compare(_runs(tmp_path, "base", base, failed[0]),
                         _runs(tmp_path, "head", head, failed[1]), spec)
    verdicts = {}
    for row in capsys.readouterr().out.splitlines()[1:-1]:
        cells = row.split()
        verdicts[cells[1]] = cells[-2]
    return status, verdicts


def _samples(spec, factor=lambda m: 1.0, jitter=0.002):
    return {m["name"]: [100.0 * factor(m) * (1 + jitter * k)
                        for k in (-2, -1, 0, 1, 2)]
            for m in spec["end_to_end"]}


def test_compare_passes_identical_results(tmp_path, spec, capsys):
    status, verdicts = _compare(tmp_path, _samples(spec), _samples(spec),
                                spec, capsys)
    assert status == 0
    assert set(verdicts.values()) == {"same"}


def test_compare_flags_a_slowdown_of_one_and_a_half_bounds(tmp_path, spec,
                                                           capsys):
    def worse(m):
        step = 1.5 * m["bound"]
        return 1 + step if m["better"] == "lower" else 1 - step

    status, verdicts = _compare(tmp_path, _samples(spec),
                                _samples(spec, worse), spec, capsys)
    assert status == 1
    for m in spec["end_to_end"]:
        assert verdicts[m["name"]] == "worse"


def test_compare_reports_wide_spreads_unresolved(tmp_path, spec, capsys):
    status, verdicts = _compare(
        tmp_path, _samples(spec, jitter=0.2),
        _samples(spec, lambda m: 1.01, jitter=0.2), spec, capsys)
    assert status == 0
    for m in spec["end_to_end"]:
        assert verdicts[m["name"]] == "unresolved"


def test_compare_counts_new_failures_as_worse(tmp_path, spec, capsys):
    status, verdicts = _compare(tmp_path, _samples(spec), _samples(spec),
                                spec, capsys, failed=(0, 1))
    assert status == 1
    assert verdicts["error_rate"] == "worse"
