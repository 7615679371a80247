"""Inline suppression comments: ``# repro: lint-ok[rule-id]``.

A suppression written on the same line as the flagged construct silences
that rule there; a suppression comment on a line of its own applies to the
next code line (for constructs too long to share a line with a comment).
``# repro: lint-ok`` without a bracket silences every rule on that line —
reserve it for generated code.  Multiple rules separate with commas:
``# repro: lint-ok[wall-clock, bare-except]``.

Suppressions are deliberately line-scoped, not file- or block-scoped: the
point of the linter is that every exception to a determinism invariant is
visible, justified, and greppable at the exact site it applies.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet

#: The marker matched inside comments (bracket part optional).
_PATTERN = re.compile(
    r"#\s*repro:\s*lint-ok(?:\[\s*([A-Za-z0-9_,\s\-]*?)\s*\])?"
)

#: Sentinel rule-set meaning "every rule".
ALL_RULES: FrozenSet[str] = frozenset({"*"})


def collect_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids suppressed on that line.

    Standalone suppression comments attach to the next line as well as
    their own, so both placements work.  Unparseable sources return no
    suppressions (the engine reports the syntax error separately).
    """
    suppressed: Dict[int, FrozenSet[str]] = {}
    if "lint-ok" not in source:  # no marker: skip tokenizing the file
        return suppressed
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PATTERN.search(token.string)
        if not match:
            continue
        rules_text = match.group(1)
        if rules_text is None:
            rules = ALL_RULES
        else:
            rules = frozenset(
                part.strip() for part in rules_text.split(",") if part.strip()
            )
            if not rules:
                rules = ALL_RULES
        line = token.start[0]
        standalone = token.line[: token.start[1]].strip() == ""
        suppressed[line] = suppressed.get(line, frozenset()) | rules
        if standalone:
            suppressed[line + 1] = suppressed.get(line + 1, frozenset()) | rules
    return suppressed


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule: str
) -> bool:
    rules = suppressions.get(line)
    if not rules:
        return False
    return "*" in rules or rule in rules
