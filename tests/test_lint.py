"""Unit tests for the determinism & invariant linter (repro.lint).

Every rule family is driven through its fixture triple under
``tests/lint_fixtures/``: the *bad* snippet must trigger, the
*suppressed* snippet must be silenced by inline ``# repro: lint-ok``
comments, and the *clean* snippet (the sanctioned idiom) must pass.  On
top of that: suppression placement semantics, baseline round-trips, the
JSON output schema, layer allowlists, registry-name checking (literal and
dynamic), and the CLI surface.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    BaselineRatchetError,
    DataflowAnalysis,
    FileContext,
    Finding,
    ProjectGraph,
    apply_baseline,
    collect_suppressions,
    load_baseline,
    run_lint,
    select_rules,
    to_json,
    to_sarif,
    validate_sarif,
    write_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.findings import JSON_SCHEMA_VERSION
from repro.obs import names as obs_names

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent

RULE_IDS = (
    "global-random",
    "wall-clock",
    "unordered-iter",
    "mutable-default",
    "bare-except",
    "unsorted-listing",
    "registry-names",
    "determinism-flow",
    "rng-lineage",
    "worker-boundary",
)

#: rule id -> (fixture stem, findings expected from the bad snippet)
EXPECTED_BAD = {
    "global-random": ("global_random", 3),
    "wall-clock": ("wall_clock", 2),
    "unordered-iter": ("unordered_iter", 3),
    "mutable-default": ("mutable_default", 2),
    "bare-except": ("bare_except", 1),
    "unsorted-listing": ("unsorted_listing", 3),
    "registry-names": ("registry_names", 3),
    "determinism-flow": ("determinism_flow", 2),
    "rng-lineage": ("rng_lineage", 3),
    "worker-boundary": ("worker_boundary", 3),
}


def _lint_fixture(name: str):
    return run_lint([FIXTURES / f"{name}.py"], baseline=None)


# -- per-rule fixture triples --------------------------------------------------


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_triggers(rule_id):
    stem, expected = EXPECTED_BAD[rule_id]
    result = _lint_fixture(f"{stem}_bad")
    of_rule = [f for f in result.findings if f.rule == rule_id]
    assert len(of_rule) == expected, result.findings
    assert all(f.rule == rule_id for f in result.findings), (
        "bad fixtures must trigger only their own rule"
    )
    for finding in of_rule:
        assert finding.line > 0
        assert finding.message
        assert finding.hint


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_suppressed_fixture_is_silent(rule_id):
    stem, expected = EXPECTED_BAD[rule_id]
    result = _lint_fixture(f"{stem}_suppressed")
    assert result.findings == []
    assert result.suppressed == expected


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_passes(rule_id):
    stem, _ = EXPECTED_BAD[rule_id]
    result = _lint_fixture(f"{stem}_clean")
    assert result.findings == []
    assert result.suppressed == 0, "clean fixtures need no suppressions"


# -- suppression semantics -----------------------------------------------------


def test_suppression_same_line_and_standalone():
    source = (
        "import time  # repro: lint-ok[wall-clock]\n"
        "# repro: lint-ok[wall-clock]\n"
        "from time import perf_counter\n"
    )
    sup = collect_suppressions(source)
    assert sup[1] == frozenset({"wall-clock"})
    assert sup[3] == frozenset({"wall-clock"})  # standalone covers next line


def test_suppression_bare_covers_all_rules_and_lists_split():
    sup = collect_suppressions("x = 1  # repro: lint-ok\n")
    assert "*" in sup[1]
    sup = collect_suppressions("x = 1  # repro: lint-ok[a, b]\n")
    assert sup[1] == frozenset({"a", "b"})


def test_suppression_only_silences_named_rule(tmp_path):
    bad = tmp_path / "wrong_rule.py"
    bad.write_text("import time  # repro: lint-ok[bare-except]\n")
    result = run_lint([bad], baseline=None)
    assert [f.rule for f in result.findings] == ["wall-clock"]


# -- layer allowlists ----------------------------------------------------------


def test_obs_layer_may_read_time(tmp_path):
    obs = tmp_path / "src" / "repro" / "obs"
    obs.mkdir(parents=True)
    (obs / "timing.py").write_text("import time\n")
    assert run_lint([obs], baseline=None).findings == []


def test_store_layer_may_not_read_time(tmp_path):
    store = tmp_path / "src" / "repro" / "store"
    store.mkdir(parents=True)
    (store / "fastpath.py").write_text("import time\n")
    findings = run_lint([store], baseline=None).findings
    assert [f.rule for f in findings] == ["wall-clock"]


def test_rng_module_may_use_numpy_random(tmp_path):
    sim = tmp_path / "src" / "repro" / "simulation"
    sim.mkdir(parents=True)
    (sim / "rng.py").write_text(
        "import numpy as np\n"
        "gen = np.random.Generator(np.random.PCG64(7))\n"
    )
    assert run_lint([sim], baseline=None).findings == []


# -- baseline ------------------------------------------------------------------


def test_baseline_roundtrip_absorbs_known_findings(tmp_path):
    bad = FIXTURES / "mutable_default_bad.py"
    fresh = run_lint([bad], baseline=None)
    assert len(fresh.findings) == 2

    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, fresh.findings)
    loaded = load_baseline(baseline_file)
    assert sum(loaded.values()) == 2

    absorbed = run_lint([bad], baseline=baseline_file)
    assert absorbed.findings == []
    assert absorbed.baselined == 2


def test_baseline_reports_only_new_findings():
    old = Finding("pkg/x.py", 3, 0, "bare-except", "bare `except:`")
    new = Finding("pkg/x.py", 9, 0, "bare-except", "bare `except:`")
    other = Finding("pkg/y.py", 1, 0, "wall-clock", "import of `time`")
    fresh, absorbed = apply_baseline(
        [new, old, other], {"pkg/x.py::bare-except": 1}
    )
    # One x.py finding absorbed (first in source order), the rest survive.
    assert absorbed == 1
    assert fresh == [Finding("pkg/x.py", 9, 0, "bare-except", "bare `except:`"),
                     other]


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}


def test_bad_baseline_version_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 99, "findings": {}}')
    with pytest.raises(ValueError):
        load_baseline(p)


# -- JSON output schema --------------------------------------------------------


def test_json_output_schema_is_stable():
    result = _lint_fixture("bare_except_bad")
    payload = json.loads(to_json(result.findings, baselined=result.baselined))
    assert set(payload) == {"version", "findings", "counts", "total",
                            "baselined"}
    assert payload["version"] == JSON_SCHEMA_VERSION == 1
    assert payload["total"] == 1
    assert payload["counts"] == {"bare-except": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "rule", "message", "hint"}
    assert finding["rule"] == "bare-except"
    assert finding["line"] == 7


def test_json_findings_sorted_by_location_then_rule():
    """JSON output orders findings by (path, line, col, rule) — never by
    message text or input order — so reports diff-stable across
    filesystems and directory-walk orders."""
    scrambled = [
        Finding("b.py", 3, 0, "wall-clock", "zzz last message"),
        Finding("a.py", 9, 4, "wall-clock", "mid"),
        Finding("b.py", 3, 0, "bare-except", "aaa first message"),
        Finding("a.py", 2, 0, "unordered-iter", "x"),
        Finding("a.py", 2, 0, "global-random", "y"),
    ]
    for perm in (scrambled, scrambled[::-1]):
        payload = json.loads(to_json(list(perm)))
        keys = [(f["path"], f["line"], f["col"], f["rule"])
                for f in payload["findings"]]
        assert keys == sorted(keys)
    assert keys == [
        ("a.py", 2, 0, "global-random"),
        ("a.py", 2, 0, "unordered-iter"),
        ("a.py", 9, 4, "wall-clock"),
        ("b.py", 3, 0, "bare-except"),
        ("b.py", 3, 0, "wall-clock"),
    ]


# -- registry names ------------------------------------------------------------


def test_every_honeypot_event_kind_is_declared():
    from repro.honeypot.events import EventType

    for event_type in EventType:
        assert obs_names.is_declared(
            event_type.value, obs_names.TRACE_KINDS
        ), f"EventType.{event_type.name} missing from obs.names.TRACE_KINDS"


def test_is_declared_exact_and_wildcard():
    assert obs_names.is_declared("cache.hits", obs_names.COUNTERS)
    assert obs_names.is_declared("farm.alerts.rate-drift", obs_names.COUNTERS)
    assert not obs_names.is_declared("cache.hitz", obs_names.COUNTERS)


def test_prefix_may_match_dynamic_heads():
    assert obs_names.prefix_may_match("farm.alerts.", obs_names.COUNTERS)
    assert obs_names.prefix_may_match("generator.sessions.", obs_names.COUNTERS)
    assert not obs_names.prefix_may_match("nope.alerts.", obs_names.COUNTERS)


def test_every_sketch_instrument_is_declared():
    # The streaming-analytics consumer's instrument names must stay in
    # sync with the obs.names registry (the lint gate enforces this for
    # literal call sites; this pins the contract at the API level too).
    for name in ("sketch.sessions_observed", "sketch.events_consumed",
                 "sketch.store_sessions_ingested", "sketch.merges"):
        assert obs_names.is_declared(name, obs_names.COUNTERS), name
    for name in ("sketch.unique.clients", "sketch.unique.hashes"):
        assert obs_names.is_declared(name, obs_names.GAUGES), name
    assert obs_names.is_declared("sketch/ingest", obs_names.SPANS)


def test_every_block_engine_instrument_is_declared():
    # The block emission engine's instrument names (repro.workload.blocks)
    # must stay in sync with the obs.names registry, same contract as the
    # sketch families above.
    for name in ("emit.block.buffered_blocks", "emit.block.flushes",
                 "emit.block.rows"):
        assert obs_names.is_declared(name, obs_names.COUNTERS), name
    assert obs_names.is_declared("emit.block.flush", obs_names.SPANS)


def test_undeclared_block_engine_counter_fails_lint(tmp_path):
    p = tmp_path / "blocks_ext.py"
    p.write_text(
        "from repro.obs import get_metrics\n"
        "def f():\n"
        "    get_metrics().inc('emit.block.bogus')\n"
    )
    result = run_lint([p], rules=select_rules(["registry-names"]),
                      baseline=None)
    assert [f.rule for f in result.findings] == ["registry-names"]
    assert "emit.block.bogus" in result.findings[0].message


def test_undeclared_sketch_family_member_fails_lint(tmp_path):
    # A sketch.* counter nobody declared must be a registry-names finding
    # — new instrument families ride through obs.names, not ad hoc.
    p = tmp_path / "analytics_ext.py"
    p.write_text(
        "from repro.obs import get_metrics\n"
        "def f():\n"
        "    get_metrics().inc('sketch.bogus_family')\n"
    )
    result = run_lint([p], rules=select_rules(["registry-names"]),
                      baseline=None)
    assert [f.rule for f in result.findings] == ["registry-names"]
    assert "sketch.bogus_family" in result.findings[0].message


def test_every_observability_pr_instrument_is_declared():
    # Ledger accounting, per-task resource telemetry and the worker
    # heartbeat protocol all record through declared families — same
    # registry-sync contract as the sketch/block families above.
    for name in ("ledger.tasks", "ledger.alerts", "ledger.writes",
                 "ledger.records", "sched.heartbeat.received",
                 "sched.heartbeat.stale"):
        assert obs_names.is_declared(name, obs_names.COUNTERS), name
    assert obs_names.is_declared("sched.heartbeat.rss_kb_peak",
                                 obs_names.GAUGES)
    for name in ("resource.task_cpu_seconds", "resource.task_max_rss_kb",
                 "resource.task_gc_pause_seconds",
                 "resource.task_gc_collections"):
        assert obs_names.is_declared(name, obs_names.HISTOGRAMS), name
    for kind in ("sched.heartbeat.worker", "sched.heartbeat.stale"):
        assert obs_names.is_declared(kind, obs_names.TRACE_KINDS), kind


def test_every_description_pattern_names_a_declared_family():
    # DESCRIPTIONS feeds Prometheus # HELP lines; a description for a
    # pattern that is not in the matching family is a stale entry.
    for family, patterns in obs_names.DESCRIPTIONS.items():
        declared = obs_names.FAMILIES[family]
        for pattern in patterns:
            assert pattern in declared, (family, pattern)


def test_describe_exact_wildcard_and_unknown():
    assert obs_names.describe("counter", "ledger.tasks")  # via ledger.*
    exact = obs_names.describe("counter", "cache.hits")
    assert exact == obs_names.DESCRIPTIONS["counter"]["cache.hits"]
    assert obs_names.describe("counter", "no.such.name") == ""


def test_undeclared_ledger_family_member_fails_lint(tmp_path):
    p = tmp_path / "ledger_ext.py"
    p.write_text(
        "from repro.obs import get_metrics\n"
        "def f():\n"
        "    get_metrics().inc('ledger.bogus')\n"
    )
    result = run_lint([p], rules=select_rules(["registry-names"]),
                      baseline=None)
    # ledger.* is a declared wildcard family: any member passes.
    assert result.findings == []
    p2 = tmp_path / "ledger_bad.py"
    p2.write_text(
        "from repro.obs import get_metrics\n"
        "def f():\n"
        "    get_metrics().inc('ledgerz.bogus')\n"
    )
    result = run_lint([p2], rules=select_rules(["registry-names"]),
                      baseline=None)
    assert [f.rule for f in result.findings] == ["registry-names"]
    assert "ledgerz.bogus" in result.findings[0].message


def test_registry_rule_ignores_non_instrument_calls(tmp_path):
    p = tmp_path / "not_metrics.py"
    p.write_text(
        "class Q:\n"
        "    def emit(self, kind):\n"
        "        return kind\n"
        "def f(q, hist):\n"
        "    hist.observe(0.5)\n"       # float arg: not a name
        "    return q\n"
    )
    result = run_lint([p], rules=select_rules(["registry-names"]),
                      baseline=None)
    assert result.findings == []


# -- call graph + taint engine -------------------------------------------------


def _graph_of(tmp_path, files):
    """Build a ProjectGraph from {package-relative path: source}."""
    contexts = []
    for rel, source in sorted(files.items()):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        contexts.append(FileContext(
            path=path.as_posix(), rel=rel,
            tree=ast.parse(source), source=source,
        ))
    return ProjectGraph.build(contexts)


def test_call_graph_cross_module_resolution_and_reachability(tmp_path):
    graph = _graph_of(tmp_path, {
        "workload/emit.py": (
            "from repro.store.build import append_row\n"
            "def produce(builder, value):\n"
            "    append_row(builder, value)\n"
        ),
        "store/build.py": (
            "def append_row(builder, value):\n"
            "    builder.append_block('col', value)\n"
        ),
    })
    produce = "repro.workload.emit:produce"
    target = "repro.store.build:append_row"
    assert produce in graph.functions and target in graph.functions
    assert target in graph.reachable([produce])


def test_call_graph_cycles_converge(tmp_path):
    graph = _graph_of(tmp_path, {
        "a.py": (
            "import os\n"
            "def ping(n, builder):\n"
            "    if n <= 0:\n"
            "        builder.append_block('col', os.getenv('X'))\n"
            "    return pong(n - 1, builder)\n"
            "def pong(n, builder):\n"
            "    return ping(n, builder)\n"
        ),
    })
    ping = "repro.a:ping"
    reach = graph.reachable([ping])
    assert "repro.a:pong" in reach and ping in reach
    # The taint fixpoint must terminate on the mutual recursion and
    # still report the flow inside the cycle.
    findings = DataflowAnalysis(graph).run()
    assert [f.kind for f in findings] == ["env-read"]


def test_call_graph_dynamic_dispatch_fallback(tmp_path):
    graph = _graph_of(tmp_path, {
        "plugins.py": (
            "class Npz:\n"
            "    def flush(self):\n"
            "        return 1\n"
            "class Jsonl:\n"
            "    def flush(self):\n"
            "        return 2\n"
            "def drain(sink):\n"
            "    return sink.flush()\n"
        ),
    })
    drain = graph.functions["repro.plugins:drain"]
    (site,) = [s for s in drain.calls if s.targets]
    assert set(site.targets) == {
        "repro.plugins:Npz.flush", "repro.plugins:Jsonl.flush",
    }
    assert site.dynamic


def test_taint_sanitizer_layer_trusts_obs(tmp_path):
    files = {
        "obs/timing.py": (
            "import time\n"
            "def now_seconds():\n"
            "    return time.time()\n"
        ),
        "store/build.py": (
            "from repro.obs.timing import now_seconds\n"
            "def write(builder):\n"
            "    builder.append_block('col', now_seconds())\n"
        ),
    }
    graph = _graph_of(tmp_path, files)
    assert DataflowAnalysis(graph).run() == []
    # The identical helper outside a sanitizer layer is a finding.
    files["workload/timing.py"] = files.pop("obs/timing.py")
    files["store/build.py"] = files["store/build.py"].replace(
        "repro.obs.timing", "repro.workload.timing")
    graph = _graph_of(tmp_path / "unsanitized", files)
    findings = DataflowAnalysis(graph).run()
    assert [f.kind for f in findings] == ["wall-clock"]


def test_taint_finding_carries_source_to_sink_path(tmp_path):
    graph = _graph_of(tmp_path, {
        "workload/stamp.py": (
            "import os\n"
            "def read_stamp():\n"
            "    return os.getenv('HOSTNAME')\n"
            "def relay():\n"
            "    return read_stamp()\n"
        ),
        "store/build.py": (
            "from repro.workload.stamp import relay\n"
            "def write(builder):\n"
            "    builder.append_block('origin', relay())\n"
        ),
    })
    (finding,) = DataflowAnalysis(graph).run()
    # The message renders the full call path, source frame to sink frame.
    assert "os.getenv" in finding.message
    assert "read_stamp" in finding.message
    assert "relay" in finding.message
    assert "write" in finding.message
    assert " -> " in finding.message
    assert finding.path.endswith("store/build.py")


def test_taint_sorted_strips_fs_order(tmp_path):
    graph = _graph_of(tmp_path, {
        "workload/scan.py": (
            "import os\n"
            "def write(builder, root):\n"
            "    builder.append_block('files', sorted(os.listdir(root)))\n"
        ),
    })
    assert DataflowAnalysis(graph).run() == []


# -- baseline ratchet ----------------------------------------------------------


def test_write_baseline_ratchet_refuses_growth(tmp_path):
    first = Finding("pkg/x.py", 3, 0, "bare-except", "m")
    second = Finding("pkg/x.py", 9, 0, "bare-except", "m")
    p = tmp_path / "baseline.json"
    write_baseline(p, [first])                      # fresh file: allowed
    with pytest.raises(BaselineRatchetError) as excinfo:
        write_baseline(p, [first, second])
    assert excinfo.value.grown == {"pkg/x.py::bare-except": (1, 2)}
    write_baseline(p, [first, second], force=True)  # explicit new debt
    assert sum(load_baseline(p).values()) == 2
    write_baseline(p, [first])                      # shrinking: always fine
    assert sum(load_baseline(p).values()) == 1
    write_baseline(p, [])                           # dropping keys too
    assert load_baseline(p) == {}


def test_cli_write_baseline_ratchet(tmp_path, capsys):
    clean = str(FIXTURES / "bare_except_clean.py")
    bad = str(FIXTURES / "bare_except_bad.py")
    baseline = str(tmp_path / "baseline.json")
    assert lint_main([clean, "--baseline", baseline,
                      "--write-baseline"]) == 0
    capsys.readouterr()
    assert lint_main([bad, "--baseline", baseline, "--write-baseline"]) == 2
    assert "ratchet" in capsys.readouterr().err
    assert lint_main([bad, "--baseline", baseline, "--write-baseline",
                      "--force"]) == 0


# -- SARIF output --------------------------------------------------------------


def test_sarif_output_validates_and_crossreferences(capsys):
    bad = str(FIXTURES / "determinism_flow_bad.py")
    assert lint_main([bad, "--no-baseline", "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert validate_sarif(payload) == []
    (run,) = payload["runs"]
    declared = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "determinism-flow" in declared
    results = run["results"]
    assert len(results) == 2
    for result in results:
        assert result["ruleId"] == "determinism-flow"
        assert declared[result["ruleIndex"]] == "determinism-flow"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert " -> " in result["message"]["text"]


def test_sarif_handles_pseudo_rules(tmp_path):
    p = tmp_path / "broken.py"
    p.write_text("def f(:\n")
    result = run_lint([p], baseline=None)
    payload = json.loads(to_sarif(result.findings, select_rules([])))
    assert validate_sarif(payload) == []
    assert payload["runs"][0]["results"][0]["ruleId"] == "syntax-error"


def test_sarif_validator_catches_problems():
    assert validate_sarif({"version": "2.1.0"})  # missing runs/$schema
    payload = {
        "$schema": "x", "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "t", "rules": [{"id": "a"}]}},
            "results": [{
                "ruleId": "b", "ruleIndex": 0, "level": "fatal",
                "message": {},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": "f.py"},
                    "region": {"startLine": 0},
                }}],
            }],
        }],
    }
    problems = "\n".join(validate_sarif(payload))
    assert "not declared" in problems
    assert "level" in problems
    assert "message.text" in problems
    assert "startLine" in problems


# -- rule selection ------------------------------------------------------------


def test_select_rules_unknown_id_raises():
    with pytest.raises(ValueError):
        select_rules(["no-such-rule"])


def test_rules_filter_limits_findings():
    bad = FIXTURES / "global_random_bad.py"
    only_wall = run_lint([bad], rules=select_rules(["wall-clock"]),
                         baseline=None)
    assert only_wall.findings == []


# -- syntax errors -------------------------------------------------------------


def test_syntax_error_is_reported_as_finding(tmp_path):
    p = tmp_path / "broken.py"
    p.write_text("def f(:\n")
    result = run_lint([p], baseline=None)
    assert [f.rule for f in result.findings] == ["syntax-error"]


# -- CLI -----------------------------------------------------------------------


def test_cli_exit_codes_and_json(capsys):
    bad = str(FIXTURES / "bare_except_bad.py")
    clean = str(FIXTURES / "bare_except_clean.py")

    assert lint_main([clean, "--no-baseline"]) == 0
    capsys.readouterr()

    assert lint_main([bad, "--no-baseline", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 1

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out

    assert lint_main([bad, "--rules", "no-such-rule"]) == 2


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    bad = str(FIXTURES / "unsorted_listing_bad.py")
    baseline = str(tmp_path / "baseline.json")
    assert lint_main([bad, "--baseline", baseline, "--write-baseline"]) == 0
    capsys.readouterr()
    assert lint_main([bad, "--baseline", baseline]) == 0
    assert lint_main([bad, "--no-baseline"]) == 1


def test_repro_cli_lint_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint",
         str(FIXTURES / "wall_clock_bad.py"), "--no-baseline"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "wall-clock" in proc.stdout
