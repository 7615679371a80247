"""Unit tests for the determinism & invariant linter (repro.lint).

Every rule family is driven through its fixture triple under
``tests/lint_fixtures/``: the *bad* snippet must trigger, the
*suppressed* snippet must be silenced by inline ``# repro: lint-ok``
comments, and the *clean* snippet (the sanctioned idiom) must pass.  On
top of that: suppression placement semantics, layer allowlists,
registry-name checking (literal and dynamic), and the CLI surface.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import collect_suppressions, run_lint, select_rules
from repro.lint.cli import main as lint_main
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
}


def _lint_fixture(name: str):
    return run_lint([FIXTURES / f"{name}.py"])


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
    result = run_lint([bad])
    assert [f.rule for f in result.findings] == ["wall-clock"]


# -- layer allowlists ----------------------------------------------------------


def test_obs_layer_may_read_time(tmp_path):
    obs = tmp_path / "src" / "repro" / "obs"
    obs.mkdir(parents=True)
    (obs / "timing.py").write_text("import time\n")
    assert run_lint([obs]).findings == []


def test_store_layer_may_not_read_time(tmp_path):
    store = tmp_path / "src" / "repro" / "store"
    store.mkdir(parents=True)
    (store / "fastpath.py").write_text("import time\n")
    findings = run_lint([store]).findings
    assert [f.rule for f in findings] == ["wall-clock"]


def test_rng_module_may_use_numpy_random(tmp_path):
    sim = tmp_path / "src" / "repro" / "simulation"
    sim.mkdir(parents=True)
    (sim / "rng.py").write_text(
        "import numpy as np\n"
        "gen = np.random.Generator(np.random.PCG64(7))\n"
    )
    assert run_lint([sim]).findings == []


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
                 "sketch.store_sessions_ingested"):
        assert obs_names.is_declared(name, obs_names.COUNTERS), name
    for name in ("sketch.unique.clients", "sketch.unique.hashes"):
        assert obs_names.is_declared(name, obs_names.GAUGES), name
    assert obs_names.is_declared("sketch/ingest", obs_names.SPANS)


def test_every_block_engine_instrument_is_declared():
    # The block write path's instrument names (StoreBuilder.append_block
    # and the merge's adopts) must stay in sync with the obs.names
    # registry, same contract as the sketch families above.
    for name in ("store.sessions_appended", "store.blocks_appended",
                 "store.sessions_adopted", "generator.sessions.CMD"):
        assert obs_names.is_declared(name, obs_names.COUNTERS), name
    assert obs_names.is_declared("store.adopt_seconds",
                                 obs_names.HISTOGRAMS)
    assert obs_names.is_declared("store/merge", obs_names.SPANS)


def test_undeclared_block_engine_counter_fails_lint(tmp_path):
    p = tmp_path / "blocks_ext.py"
    p.write_text(
        "from repro.obs import get_metrics\n"
        "def f():\n"
        "    get_metrics().inc('emit.block.bogus')\n"
    )
    result = run_lint([p], rules=select_rules(["registry-names"]))
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
    result = run_lint([p], rules=select_rules(["registry-names"]))
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
    result = run_lint([p], rules=select_rules(["registry-names"]))
    # ledger.* is a declared wildcard family: any member passes.
    assert result.findings == []
    p2 = tmp_path / "ledger_bad.py"
    p2.write_text(
        "from repro.obs import get_metrics\n"
        "def f():\n"
        "    get_metrics().inc('ledgerz.bogus')\n"
    )
    result = run_lint([p2], rules=select_rules(["registry-names"]))
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
    result = run_lint([p], rules=select_rules(["registry-names"]))
    assert result.findings == []


# -- rule selection ------------------------------------------------------------


def test_select_rules_unknown_id_raises():
    with pytest.raises(ValueError):
        select_rules(["no-such-rule"])


def test_rules_filter_limits_findings():
    bad = FIXTURES / "global_random_bad.py"
    only_wall = run_lint([bad], rules=select_rules(["wall-clock"]))
    assert only_wall.findings == []


# -- syntax errors -------------------------------------------------------------


def test_syntax_error_is_reported_as_finding(tmp_path):
    p = tmp_path / "broken.py"
    p.write_text("def f(:\n")
    result = run_lint([p])
    assert [f.rule for f in result.findings] == ["syntax-error"]


# -- CLI -----------------------------------------------------------------------


def test_cli_exit_codes_and_json(capsys):
    bad = str(FIXTURES / "bare_except_bad.py")
    clean = str(FIXTURES / "bare_except_clean.py")

    assert lint_main([clean]) == 0
    capsys.readouterr()

    assert lint_main([bad]) == 1
    assert "bare-except" in capsys.readouterr().out

    # The report is text only: asking for JSON is a usage error.
    with pytest.raises(SystemExit) as exc:
        lint_main([bad, "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out

    assert lint_main([bad, "--rules", "no-such-rule"]) == 2


def test_repro_cli_lint_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint",
         str(FIXTURES / "wall_clock_bad.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "wall-clock" in proc.stdout
