"""The lint engine: walk files, run rules, honour inline suppressions.

:func:`run_lint` is the library entry point (the CLI and the pytest gate
are thin wrappers): collect ``*.py`` files under the given paths, parse
each once, run every rule's visitor over the shared tree, drop findings
suppressed inline (``# repro: lint-ok[rule]``).  What remains is what
fails CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, default_rules
from repro.lint.suppressions import collect_suppressions, is_suppressed

PathLike = Union[str, Path]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # unsuppressed
    suppressed: int = 0   # dropped by inline lint-ok comments
    files: int = 0        # files linted

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[PathLike]) -> Iterable[Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p for p in sorted(path.rglob("*.py"))
                if not (set(p.parts) & _SKIP_DIRS)
            )
        elif path.suffix == ".py":
            out.append(path)
    return sorted(set(out))


def _package_relative(path: Path) -> str:
    """The path relative to the ``repro`` package root, else the basename.

    ``src/repro/store/npz.py`` -> ``store/npz.py``; files outside the
    package (fixtures, scratch files) reduce to their basename, which
    matches no layer allowlist — every layer-scoped rule applies to them.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and (i == 0 or parts[i - 1] == "src"):
            return "/".join(parts[i + 1:])
    return path.name


def _display_path(path: Path) -> str:
    """Posix path, cwd-relative when possible (stable finding identity)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _load_context(
    path: Path,
) -> Tuple[Optional[FileContext], List[Finding]]:
    """Parse one file -> (context, parse-error findings)."""
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, [Finding(display, 1, 0, "unreadable", str(exc), "")]
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, [Finding(
            display, exc.lineno or 1, exc.offset or 0,
            "syntax-error", exc.msg or "syntax error", "",
        )]
    return FileContext(
        path=display,
        rel=_package_relative(path),
        tree=tree,
        source=source,
    ), []


def run_lint(
    paths: Sequence[PathLike],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint ``paths`` with ``rules`` (default: all), parsing each file once."""
    active: Sequence[Rule] = default_rules() if rules is None else rules
    result = LintResult()
    for path in iter_python_files(paths):
        ctx, errors = _load_context(path)
        result.files += 1
        if ctx is None:
            result.findings.extend(errors)
            continue
        suppressions = collect_suppressions(ctx.source)
        for rule in active:
            for finding in rule.check(ctx):
                if is_suppressed(suppressions, finding.line, finding.rule):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort()
    return result
