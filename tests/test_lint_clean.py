"""CI gate: the tree itself must satisfy every lint invariant.

This is the test the determinism linter exists for — ``src/`` carries
zero unsuppressed findings, and a lint run is a pure read: it must not create, change or delete any
file in the repository.  ``src/`` and ``tests/`` also carry no unused
module-level import (ruff's F401, checked here whether or not ruff is
installed), and every definition in ``src/`` has a caller outside
``tests/``.
"""

import ast
import hashlib
import os
import re
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


#: Trees whose code counts as a caller of ``src/``: the package itself,
#: the benchmarks, the examples and the scripts (``ci.sh``'s heredocs
#: included).  ``tests/`` does not count.
CALLER_TREES = ("src", "benchmarks", "examples", "scripts")

#: Definitions kept without a caller outside ``tests/``: name -> reason.
ALLOWED = {
    "plan_digest": "test reference: tests/test_plan_digest.py pins the "
                   "plan bytes through it",
    "strip_volatile": "test reference: trace invariance tests compare "
                      "events through it",
    "strip_volatile_events": "test reference: trace and monitor tests "
                             "drop whole-event telemetry through it",
    "group_by_trace": "test reference: trace invariance tests group "
                      "events per trace through it",
    "filter": "SessionStore.filter: ci.sh's metamorphic smoke reaches it "
              "through tests/report_digest.split_and_merge",
}

#: A string constant naming code (``"pkg.mod:Class.attr"``, ``"emit"``):
#: how ``getattr`` and ``benchmarks/perf/tracing.py`` reach a definition.
_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _identifiers(tree: ast.AST) -> dict:
    """How often each identifier is read in ``tree``: names, attributes
    and the parts of dotted string constants.  Imports and ``__all__``
    re-export a name without calling it, so they do not count."""
    counts: dict = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
            continue
        names = []
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            names = [part for part in re.split(r"[.:]", node.value) if part]
        for name in names:
            counts[name] = counts.get(name, 0) + 1
        stack.extend(ast.iter_child_nodes(node))
    return counts


def _definitions(tree: ast.Module):
    """Module-level defs and classes, and the defs and classes in their
    class bodies."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, kinds))


def _exempt(node) -> bool:
    """Dunders run by the language; abstract methods are contracts."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", ""))
               == "abstractmethod" for d in node.decorator_list)


def uncalled_definitions(root: Path) -> list:
    """``path:line: name`` for each definition in ``root/src`` whose name
    is read nowhere in :data:`CALLER_TREES` outside its own body."""
    reads: dict = {}
    defined = []
    for top in CALLER_TREES:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, n in _identifiers(tree).items():
                reads[name] = reads.get(name, 0) + n
            if top == "src":
                defined += [(path, node) for node in _definitions(tree)]
        for path in sorted((root / top).rglob("*.sh")):
            for name in re.findall(r"[A-Za-z_]\w*", path.read_text()):
                reads[name] = reads.get(name, 0) + 1
    return sorted(
        f"{path.relative_to(root)}:{node.lineno}: {node.name}"
        for path, node in defined
        if not _exempt(node) and node.name not in ALLOWED
        and reads.get(node.name, 0) <= _identifiers(node).get(node.name, 0))


def test_every_src_definition_has_a_caller():
    assert uncalled_definitions(REPO_ROOT) == []


def test_uncalled_definition_check_flags_only_uncalled_names(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "import abc\n"
        "__all__ = ['Sketch', 'orphan']\n"
        "def orphan():\n"
        "    return orphan()\n"
        "def by_script():\n"
        "    pass\n"
        "def by_string():\n"
        "    pass\n"
        "class Sketch:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    @abc.abstractmethod\n"
        "    def contract(self):\n"
        "        pass\n"
        "    def add(self):\n"
        "        pass\n"
        "    def add_hash(self):\n"
        "        pass\n"
        "TARGET = 'mod:Sketch.add'\n"
        "getattr(Sketch, 'by_string')\n"
    )
    (tmp_path / "scripts" / "ci.sh").write_text(
        "python - <<'PY'\nfrom mod import by_script\nby_script()\nPY\n")
    assert uncalled_definitions(tmp_path) == [
        "src/mod.py:17: add_hash", "src/mod.py:3: orphan"]
