"""Determinism & invariant linter (static analysis over the pipeline).

The reproduction's core guarantee — byte-identical stores and
worker-count-invariant metrics/traces — is a set of *coding invariants*:
randomness only through named ``RngStream`` s, no wall-clock reads outside
the obs layer, no set-iteration feeding ordered output, declared metric
names only.  This package checks them statically, before any dataset is
generated:

>>> from repro.lint import run_lint
>>> result = run_lint(["src"])
>>> result.clean
True

CLI: ``python -m repro lint [paths] [--rules IDS]``.
Suppress one site with ``# repro: lint-ok[rule-id]``.  See DESIGN
section 6e for the rule-by-rule rationale.
"""

from repro.lint.engine import LintResult, iter_python_files, run_lint
from repro.lint.findings import Finding, render_text
from repro.lint.rules import (
    ALL_RULES,
    FileContext,
    Rule,
    default_rules,
    rules_by_id,
    select_rules,
)
from repro.lint.suppressions import collect_suppressions, is_suppressed

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "collect_suppressions",
    "default_rules",
    "is_suppressed",
    "iter_python_files",
    "render_text",
    "rules_by_id",
    "run_lint",
    "select_rules",
]
