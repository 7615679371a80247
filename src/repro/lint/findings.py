"""The findings model: what a lint rule reports and how it serialises.

A :class:`Finding` is one rule violation at one source location, carrying
the rule id, a human message, and a fix hint.  The JSON form (one object
per finding, under a versioned envelope — :func:`to_json`) is the stable
machine interface the CI gate and editor integrations consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

#: Bump only on breaking changes to the JSON envelope below.
JSON_SCHEMA_VERSION = 2


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # posix-style, as given to the engine
    line: int  # 1-based
    col: int   # 0-based (ast convention)
    rule: str  # rule id, e.g. "wall-clock"
    message: str
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


def location_order(finding: Finding):
    """The report sort key: (path, line, col, rule).

    Explicit — not dataclass ordering, which would tie-break on message
    text — so text and JSON output are diff-stable across filesystems and
    directory-walk orders.
    """
    return (finding.path, finding.line, finding.col, finding.rule)


def render_text(findings: List[Finding]) -> str:
    """The human report: one line per finding plus a per-rule summary."""
    lines = [f.render() for f in sorted(findings, key=location_order)]
    if findings:
        counts: Dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        lines.append(f"-- {len(findings)} finding(s) ({summary})")
    else:
        lines.append("-- no findings")
    return "\n".join(lines)


def to_json(findings: List[Finding]) -> str:
    """The stable machine form (versioned envelope, findings sorted)."""
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [f.to_dict()
                     for f in sorted(findings, key=location_order)],
        "counts": {rule: counts[rule] for rule in sorted(counts)},
        "total": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
