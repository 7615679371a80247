"""The lint CLI: ``python -m repro lint [paths...]``.

Exit status 0 means zero unsuppressed findings; 1 means the
gate fails (findings were printed); 2 means usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import run_lint
from repro.lint.findings import render_text
from repro.lint.rules import ALL_RULES, select_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint subcommand's arguments (shared with ``repro.__main__``)."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: src/ if present, "
             "else the current directory)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="run only these rule ids (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )


def _list_rules() -> str:
    lines = ["rule id            invariant"]
    for rule in ALL_RULES:
        lines.append(f"{rule.id:<18} {rule.summary}")
    lines.append(
        "suppress one site with `# repro: lint-ok[rule-id]` on (or directly "
        "above) the flagged line"
    )
    return "\n".join(lines)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the linter per parsed ``args`` (the repro CLI entry point)."""
    if args.list_rules:
        print(_list_rules())
        return 0

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    try:
        rules = (select_rules([r.strip() for r in args.rules.split(",")])
                 if args.rules else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = run_lint(paths, rules=rules)
    print(render_text(result.findings))
    notes = [f"{result.files} file(s) linted"]
    if result.suppressed:
        notes.append(f"{result.suppressed} suppressed inline")
    print("-- " + ", ".join(notes))
    return 0 if result.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & invariant linter for the honeyfarm "
                    "reproduction (see DESIGN section 6e)",
    )
    add_lint_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
