"""CI gate: the tree itself must satisfy every lint invariant.

This is the test the determinism linter exists for — ``src/`` carries
zero unsuppressed findings, and a lint run is a pure read: it must not create, change or delete any
file in the repository.  ``src/`` and ``tests/`` also carry no unused
module-level import (ruff's F401, checked here whether or not ruff is
installed).
"""

import ast
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


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` of each module-level import, including
    those under a top-level ``if``/``try``/``with``; ``from __future__``
    and star imports bind nothing checkable."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                stack.extend(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _names_used(tree: ast.Module) -> set:
    """Every name the module reads, including those inside string
    annotations (``"SessionStore"``), plus the names in ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))
                   and node.annotation is not None]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns is not None]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(root: Path, paths) -> list:
    """``path:line: name`` (``path`` relative to ``root``) for each
    module-level import in ``paths`` whose name the module never uses,
    unless its line says ``noqa``."""
    found = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        used = _names_used(tree)
        for name, line in _module_imports(tree):
            if name not in used and "noqa" not in lines[line - 1]:
                found.append(f"{path.relative_to(root)}:{line}: {name}")
    return sorted(found)


def test_no_unused_module_imports():
    fixtures = REPO_ROOT / "tests" / "lint_fixtures"
    paths = [path for root in (SRC, REPO_ROOT / "tests")
             for path in sorted(root.rglob("*.py"))
             if fixtures not in path.parents]
    assert len(paths) > 100
    assert unused_imports(REPO_ROOT, paths) == []


def test_unused_import_check_flags_only_unused_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import json  # noqa: F401\n"
        "from typing import List, Optional\n"
        "from repro.obs import inc, get_metrics\n"
        "try:\n"
        "    import yaml\n"
        "except ImportError:\n"
        "    yaml = None\n"
        "__all__ = ['inc']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    import sys\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(tmp_path, [path]) == [
        "mod.py:2: os", "mod.py:6: get_metrics", "mod.py:8: yaml"]
