"""CI gate: the tree itself must satisfy every lint invariant.

This is the test the determinism linter exists for — ``src/`` carries
zero unsuppressed findings against the checked-in (empty) baseline, and
a lint run is a pure read: it must not touch the benchmark trajectory
or any other tracked artifact.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.lint import load_baseline, render_text, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "lint_baseline.json"
TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"


def _trajectory_digest() -> str:
    return hashlib.sha256(TRAJECTORY.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def lint_run():
    """One whole-program lint of ``src/``, shared by the tests below,
    with the trajectory digest taken before and after it."""
    before = _trajectory_digest()
    result = run_lint([SRC], baseline=BASELINE)
    return result, before, _trajectory_digest()


def test_src_tree_is_lint_clean(lint_run):
    result, _, _ = lint_run
    assert result.files > 0
    assert result.findings == [], "\n" + render_text(result.findings)


def test_checked_in_baseline_is_empty():
    # The baseline exists for emergencies (adopting a legacy tree), but
    # this repo holds itself to zero debt: nothing may hide behind it.
    assert load_baseline(BASELINE) == {}


def test_lint_run_does_not_touch_benchmark_trajectory(lint_run):
    _, before, after = lint_run
    assert before == after
    # and it still parses — a lint run must never corrupt artifacts
    json.loads(TRAJECTORY.read_text())


def test_fixture_corpus_covers_every_rule():
    # Keep the fixture corpus in lockstep with the rule set: adding a
    # rule without its bad/suppressed/clean triple fails here.
    from repro.lint import default_rules

    fixtures = REPO_ROOT / "tests" / "lint_fixtures"
    for rule in default_rules():
        stem = rule.id.replace("-", "_")
        for variant in ("bad", "suppressed", "clean"):
            path = fixtures / f"{stem}_{variant}.py"
            assert path.is_file(), f"missing fixture {path.name}"
