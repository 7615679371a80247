"""The paper's published claims, and calibration validation against them.

:data:`PAPER_CLAIMS` is the one table of the paper's numbers: each
:class:`PaperClaim` holds the value, its source, a measure over a trace
and the bound the trace must meet.  :func:`validate` checks every bounded
claim into a machine-readable :class:`CalibrationReport`;
``print_summary``, ``scripts/make_experiments.py`` and the paper benches
(``benchmarks/common.py:assert_claim``) read the same entries.

A bound may tighten once, for traces of at least
:data:`FULL_BAND_SESSIONS` sessions (the 1/1000 bench volume).  The band
follows the trace's session count, not its config: a bare ``.npz``
loaded without a config gets the default one whatever its size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

from repro.core import activity, clients, diversity
from repro.core.classify import CATEGORIES, category_shares
from repro.core.context import AnalysisContext
from repro.core.hashes import pot_coverage_summary
from repro.obs import get_metrics
from repro.workload.config import (
    CATEGORY_MIX,
    FULL_SCALE_CLIENTS,
    FULL_SCALE_HASHES,
    FULL_SCALE_SESSIONS,
    SSH_SHARE,
)
from repro.workload.dataset import HoneyfarmDataset


class CheckKind(enum.Enum):
    APPROX = "approx"  # measured within +- tolerance of the paper value
    AT_LEAST = "at_least"  # measured >= paper bound
    AT_MOST = "at_most"  # measured <= paper bound


@dataclass
class CalibrationCheck:
    """One published claim against its measured value.

    ``measured`` is NaN when the dataset lacks the check's input (e.g. a
    bare store with no threat-intel entries): the check then renders as
    ``[n/a]`` and never as ``ok``.
    """

    name: str
    paper_value: float
    measured: float
    kind: CheckKind
    tolerance: float = 0.0
    hard: bool = True  # hard checks gate; soft checks are informational

    @property
    def passed(self) -> bool:
        if self.kind is CheckKind.APPROX:
            return abs(self.measured - self.paper_value) <= self.tolerance
        if self.kind is CheckKind.AT_LEAST:
            return self.measured >= self.paper_value
        return self.measured <= self.paper_value

    @property
    def applicable(self) -> bool:
        return not math.isnan(self.measured)

    def __str__(self) -> str:
        if self.applicable:
            mark = "ok " if self.passed else ("FAIL" if self.hard else "soft")
            measured = f"{self.measured:.4g}"
        else:
            mark = measured = "n/a"
        return (f"[{mark}] {self.name}: paper {self.paper_value:.4g} "
                f"({self.kind.value}"
                + (f" ±{self.tolerance:g}" if self.kind is CheckKind.APPROX else "")
                + f"), measured {measured}")


@dataclass
class CalibrationReport:
    checks: List[CalibrationCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    @property
    def failures(self) -> List[CalibrationCheck]:
        return [c for c in self.checks if c.hard and not c.passed]

    @property
    def not_applicable(self) -> List[CalibrationCheck]:
        """Checks whose input the dataset lacks (``measured`` is NaN)."""
        return [c for c in self.checks if not c.applicable]

    def render(self) -> str:
        return "\n".join(str(c) for c in self.checks)


class TraceSummaries:
    """The analyses the claims measure, each run at most once per trace."""

    def __init__(self, ctx: AnalysisContext, dataset: HoneyfarmDataset):
        self.ctx, self.dataset = ctx, dataset

    mix = cached_property(lambda self: category_shares(self.ctx))
    skew = cached_property(
        lambda self: activity.ActivitySummary.compute(self.ctx.store))
    per_client = cached_property(
        lambda self: clients.clients_overall_summary(self.ctx))
    coverage = cached_property(lambda self: pot_coverage_summary(
        self.ctx.hash_occurrences, self.ctx.hash_stats))
    regional = cached_property(lambda self: diversity.regional_diversity(
        self.ctx, [site.country for site in self.dataset.deployment.sites]))

    def intel_coverage(self) -> float:
        # A bare store loads with an empty intel DB: nothing to measure.
        intel = self.dataset.intel
        return intel.coverage(self.ctx.store.hashes.values()) if intel else math.nan


#: Traces at least this long (the 1/1000 bench volume) meet ``full_bound``.
FULL_BAND_SESSIONS = FULL_SCALE_SESSIONS // 1000


@dataclass(frozen=True)
class PaperClaim:
    """One number the paper publishes, and the bound a trace must meet.

    ``paper`` is the value as published, qualified by ``says`` (``>``,
    ``<`` or ``~``); ``unit`` is ``%`` for shares, ``x`` for ratios, empty
    for counts.  A claim with a ``kind`` is checked against ``bound`` (the
    paper value when unset), or ``full_bound`` on bench-volume traces; a
    claim without one is printed, never checked.
    """

    name: str
    source: str
    paper: float
    says: str = ""
    unit: str = "%"
    kind: Optional[CheckKind] = None
    bound: Optional[float] = None
    tolerance: float = 0.0
    hard: bool = True
    full_bound: Optional[float] = None
    measure: Optional[Callable[[TraceSummaries], float]] = None

    @property
    def text(self) -> str:
        """The paper's value as published, e.g. ``>40%`` or ``~11``."""
        value = (f"{self.paper * 100:g}%" if self.unit == "%"
                 else f"{self.paper:,g}{self.unit}")
        return self.says + value

    def bound_for(self, sessions: int) -> float:
        """The bound a trace of ``sessions`` sessions must meet."""
        if self.full_bound is not None and sessions >= FULL_BAND_SESSIONS:
            return self.full_bound
        return self.paper if self.bound is None else self.bound

    def check(self, summaries: TraceSummaries) -> CalibrationCheck:
        assert self.kind is not None and self.measure is not None, self.name
        return CalibrationCheck(
            self.name, self.bound_for(len(summaries.ctx.store)),
            self.measure(summaries), self.kind, self.tolerance, self.hard)


_APPROX, _AT_LEAST, _AT_MOST = CheckKind.APPROX, CheckKind.AT_LEAST, CheckKind.AT_MOST

PAPER_CLAIMS: Tuple[PaperClaim, ...] = (
    # Farm shape (Fig 1).
    PaperClaim("honeypots", "Fig. 1", 221, unit="", kind=_APPROX,
               measure=lambda s: s.dataset.deployment.n_honeypots),
    PaperClaim("countries", "Fig. 1", 55, unit="", kind=_APPROX,
               measure=lambda s: len(s.dataset.deployment.countries)),
    PaperClaim("honeypot ASes", "Fig. 1", 65, unit="", kind=_APPROX,
               measure=lambda s: len(s.dataset.deployment.honeypot_asns)),
    # Category / protocol mix (Table 1).
    *(PaperClaim(f"{cat.value} share", "Table 1", CATEGORY_MIX[cat.value],
                 kind=_APPROX, tolerance=0.03,
                 measure=lambda s, cat=cat: s.mix[cat])
      for cat in CATEGORIES),
    PaperClaim("SSH share", "Table 1", 0.7584, kind=_APPROX, tolerance=0.03,
               measure=lambda s: float(s.ctx.store.is_ssh.mean())),
    # Honeypot activity skew (Fig 2).
    PaperClaim("top-10 session share", "Fig. 2", 0.14, kind=_APPROX,
               tolerance=0.06, measure=lambda s: s.skew.top10_share),
    PaperClaim("max/min pot sessions", "Fig. 2", 30, ">", "x",
               kind=_AT_LEAST, bound=8.0,
               measure=lambda s: s.skew.max_min_ratio),
    # Client behaviour (Figs 12/13, Section 7).
    PaperClaim("single-pot client share", "Fig. 12", 0.40, ">",
               kind=_AT_LEAST, bound=0.30,
               measure=lambda s: s.per_client["share_single_pot"]),
    PaperClaim(">10-pot client share", "Fig. 12", 0.18, kind=_APPROX,
               tolerance=0.10,
               measure=lambda s: s.per_client["share_over_10_pots"]),
    # Relaxed below the bench volume: tiny traces reuse their small
    # client population across more days.
    PaperClaim("single-day client share", "Fig. 13", 0.50, ">",
               kind=_AT_LEAST, bound=0.38, full_bound=0.45,
               measure=lambda s: s.per_client["share_single_day"]),
    PaperClaim("multi-category client share", "§7", 0.40, ">",
               kind=_AT_LEAST, bound=0.25,
               measure=lambda s: s.per_client["multi_category_share"]),
    # Hash/pot coverage (Fig 18, Section 8.4).
    PaperClaim("single-pot hash share", "§8.4", 0.60, ">", kind=_AT_LEAST,
               measure=lambda s: s.coverage["share_single_pot"]),
    PaperClaim("top pot hash share", "Fig. 18", 0.05, "<", kind=_AT_MOST,
               bound=0.12, full_bound=0.10,
               measure=lambda s: s.coverage["top_pot_hash_share"]),
    # Regional diversity (Fig 16).
    PaperClaim("out-of-continent-only client-days", "Fig. 16", 0.50, ">",
               kind=_AT_LEAST, bound=0.40,
               measure=lambda s: s.regional.out_only_share),
    # Intel coverage: scale-dependent, so informational only.
    PaperClaim("threat-intel hash coverage", "§8", 0.02, "<", kind=_AT_MOST,
               bound=0.10, hard=False, measure=TraceSummaries.intel_coverage),
    # Printed next to their measured values, never checked.
    PaperClaim("sessions", "§1", FULL_SCALE_SESSIONS, unit=""),
    *(PaperClaim(f"{cat} SSH share", "Table 1", share)
      for cat, share in SSH_SHARE.items()),
    PaperClaim("knee rank", "Fig. 2", 11, "~", ""),
    PaperClaim(">half-farm client share", "Fig. 12", 0.02),
    PaperClaim("client IPs", "§7", FULL_SCALE_CLIENTS, unit=""),
    PaperClaim("client ASes", "§7", 17_700, unit=""),
    PaperClaim("unique hashes", "§8", FULL_SCALE_HASHES, unit=""),
    PaperClaim(">10-pot hash share", "§8.4", 0.068),
    PaperClaim("top-10 pot hash share", "§8.4", 0.15, "<"),
    PaperClaim("hash head/tail pot ratio", "Fig. 18", 20, "~", "x"),
)


def paper_claim(name: str) -> PaperClaim:
    """The entry of :data:`PAPER_CLAIMS` called ``name``."""
    return next(claim for claim in PAPER_CLAIMS if claim.name == name)


def validate(dataset: HoneyfarmDataset) -> CalibrationReport:
    """Check every bounded paper claim against a generated dataset."""
    with get_metrics().span("validate"):
        summaries = TraceSummaries(AnalysisContext.from_dataset(dataset),
                                   dataset)
        return CalibrationReport(checks=[
            claim.check(summaries) for claim in PAPER_CLAIMS
            if claim.kind is not None])
