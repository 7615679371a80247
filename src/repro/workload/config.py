"""Scenario configuration and the paper's calibration constants."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.simulation.clock import OBSERVATION_DAYS

#: Total sessions over the paper's 15-month window.
FULL_SCALE_SESSIONS = 402_000_000

#: Unique client IPv4 addresses over the window.
FULL_SCALE_CLIENTS = 2_100_000

#: Unique file hashes over the window.
FULL_SCALE_HASHES = 64_004

#: Session category mix (paper Table 1, top row).
CATEGORY_MIX: Dict[str, float] = {
    "NO_CRED": 0.277,
    "FAIL_LOG": 0.420,
    "NO_CMD": 0.116,
    "CMD": 0.180,
    "CMD_URI": 0.007,
}

#: SSH share per category (paper Table 1, second row).
SSH_SHARE: Dict[str, float] = {
    "NO_CRED": 0.2182,
    "FAIL_LOG": 0.9924,
    "NO_CMD": 0.9830,
    "CMD": 0.9369,
    "CMD_URI": 0.6245,
}


@dataclass
class ScenarioConfig:
    """Sizing and seeding for one synthetic honeyfarm trace.

    ``scale`` multiplies session volume; client and hash populations scale
    sub-linearly (they are far smaller than session counts, and scaling
    them 1:1 would starve the distributional figures), via their own
    factors.  Defaults produce a ~1 M-session trace in a few seconds —
    1/400 of the paper's volume with all 221 honeypots and all 486 days.
    """

    seed: int = 2023
    #: Session-volume scale relative to the paper's 402 M.
    scale: float = 1.0 / 400.0
    #: Client population size (default: ~2.1 M scaled with a 4x floor boost).
    n_clients: int = 0  # 0 = derive from scale
    #: Unique-hash budget scale relative to the paper's 64 k.
    hash_scale: float = 0.08
    n_honeypots: int = 221
    n_days: int = OBSERVATION_DAYS
    #: Fraction of midtail campaign hashes present in the intel database.
    intel_coverage: float = 0.02

    # -- ablation switches (each disables one modelled mechanism; the
    # -- ablation benchmarks show which paper findings then collapse) -----
    #: Use three decorrelated per-pot weight vectors (sessions / clients /
    #: hashes). With False, one vector drives everything and the paper's
    #: "top pots differ per metric" findings (Figs 2/14/18) disappear.
    decorrelate_pot_weights: bool = True
    #: Redirect a share of CMD+URI sessions to nearby honeypots. With 0.0
    #: the Figure 16b/24e locality signal disappears.
    uri_locality_bias: float = 0.55
    #: Rotate campaign members through short bursts. With False every bot
    #: participates on every campaign day and the Figure 13 lifetime
    #: distribution collapses.
    rotate_campaign_members: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if not (math.isfinite(self.hash_scale) and self.hash_scale > 0):
            raise ValueError("hash_scale must be positive and finite")
        if not self.n_clients:
            derived = int(FULL_SCALE_CLIENTS * self.scale * 4)
            self.n_clients = max(1_500, min(derived, FULL_SCALE_CLIENTS))

    @classmethod
    def from_denominator(cls, denominator: float, **kwargs) -> "ScenarioConfig":
        """Config from the downscale denominator vs the paper's 402 M.

        ``from_denominator(4000)`` is ``ScenarioConfig(scale=1/4000)`` —
        the spelling the CLI and benchmarks use.  Unless overridden,
        ``hash_scale`` is derived the same way the CLI derives it
        (80/denominator, capped at the full-scale default).
        """
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        kwargs.setdefault("hash_scale", min(0.08, 80.0 / denominator))
        return cls(scale=1.0 / denominator, **kwargs)

    @property
    def total_sessions(self) -> int:
        return int(FULL_SCALE_SESSIONS * self.scale)

    @property
    def ip_scale(self) -> float:
        """Scale factor applied to campaign client counts."""
        return self.n_clients / FULL_SCALE_CLIENTS

    @property
    def n_hashes_target(self) -> int:
        return max(300, int(FULL_SCALE_HASHES * self.hash_scale))

    @property
    def n_midtail_campaigns(self) -> int:
        """Campaign hashes are ~35% of all hashes; the rest are singletons."""
        return max(60, int(self.n_hashes_target * 0.33))

    @property
    def n_singleton_hashes(self) -> int:
        return max(120, int(self.n_hashes_target * 0.62))

    def sessions_for(self, category: str) -> int:
        return int(self.total_sessions * CATEGORY_MIX[category])
