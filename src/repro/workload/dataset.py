"""The generated dataset bundle handed to analyses and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.farm.deployment import DeploymentPlan
from repro.geo.registry import GeoRegistry
from repro.intel.database import IntelDatabase
from repro.store.store import SessionStore
from repro.workload.config import ScenarioConfig


@dataclass
class CampaignRuntime:
    """Realised (scaled) campaign parameters, kept for validation."""

    campaign_id: str
    tag: str
    primary_hash: str
    hashes: List[str]
    sessions_planned: int
    n_clients: int
    active_days: List[int]
    honeypot_indices: List[int]


@dataclass
class HoneyfarmDataset:
    """Everything one scenario run produces."""

    config: ScenarioConfig
    store: SessionStore
    deployment: DeploymentPlan
    registry: GeoRegistry
    intel: IntelDatabase
    campaigns: List[CampaignRuntime] = field(default_factory=list)
    envelopes: Dict[str, np.ndarray] = field(default_factory=dict)
    #: The analysis context over ``store`` that
    #: ``AnalysisContext.from_dataset`` built (not copied by ``replace``).
    _analysis_context: Optional[object] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_sessions(self) -> int:
        return len(self.store)

    def content_digest(self) -> str:
        """The session store's content sha256 — the run-ledger identity."""
        return self.store.content_digest()

    def campaign(self, campaign_id: str) -> Optional[CampaignRuntime]:
        for campaign in self.campaigns:
            if campaign.campaign_id == campaign_id:
                return campaign
        return None
