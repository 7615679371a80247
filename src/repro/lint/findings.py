"""The findings model: what a lint rule reports and how it renders.

A :class:`Finding` is one rule violation at one source location, carrying
the rule id, a human message, and a fix hint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


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


def location_order(finding: Finding):
    """The report sort key: (path, line, col, rule).

    Explicit — not dataclass ordering, which would tie-break on message
    text — so the report is diff-stable across filesystems and
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
