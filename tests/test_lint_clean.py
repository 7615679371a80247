"""CI gate: the tree itself must satisfy every lint invariant.

This is the test the determinism linter exists for — ``src/`` carries
zero unsuppressed findings, and a lint run is a pure read: it must not create, change or delete any
file in the repository.
"""

import hashlib
import os
from pathlib import Path

import pytest

from repro.lint import render_text, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
#: Directories a digest of the tree skips: version control and the caches
#: and work directories that Python, pytest, hypothesis and
#: ``benchmarks/perf/run.py`` write while the suite runs.
UNTRACKED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
                  ".perfbench"}


def _tree_digest() -> str:
    """sha256 over the path and bytes of every regular file under the
    repository root, outside :data:`UNTRACKED_DIRS`.  Needs no ``.git``,
    so it works in an exported copy of the tree too."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = sorted(d for d in dirs if d not in UNTRACKED_DIRS)
        for name in sorted(files):
            path = Path(root, name)
            if not path.is_file() or path.is_symlink():
                continue
            digest.update(path.relative_to(REPO_ROOT).as_posix().encode())
            digest.update(b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def lint_run():
    """One lint of ``src/``, shared by the tests below,
    with the tree digest taken before and after it."""
    before = _tree_digest()
    result = run_lint([SRC])
    return result, before, _tree_digest()


def test_src_tree_is_lint_clean(lint_run):
    result, _, _ = lint_run
    assert result.files > 0
    assert result.findings == [], "\n" + render_text(result.findings)


def test_lint_run_does_not_touch_benchmark_trajectory(lint_run):
    # The name predates the trajectory file's removal; the check now
    # covers every file in the tree, so no artifact can be touched.
    _, before, after = lint_run
    assert before == after


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
