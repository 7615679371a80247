"""Persistence for a whole :class:`HoneyfarmDataset`.

A generated dataset is more than its session store: the deployment layout,
the realised campaigns (ground truth for validation), and the threat-intel
entries all matter for reanalysis.  This module saves everything into one
directory — the store as .npz, the rest as JSON — and reloads it without
regenerating.

The geo registry is not persisted (it is large and derivable); analyses
that need per-AS network types should either regenerate or re-register.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

from repro.farm.deployment import DeploymentPlan, HoneypotSite
from repro.geo.registry import GeoRegistry, NetworkType
from repro.intel.database import IntelDatabase
from repro.intel.tags import ThreatTag
from repro.store.npz import load_npz, save_npz, staged_file
from repro.workload.config import ScenarioConfig
from repro.workload.dataset import CampaignRuntime, HoneyfarmDataset

PathLike = Union[str, Path]

_STORE_FILE = "store.npz"
_META_FILE = "dataset.json"


def save_dataset(dataset: HoneyfarmDataset, directory: PathLike) -> None:
    """Save a dataset bundle into ``directory`` (created if needed).

    Each file is staged beside its target and renamed into place, the
    store first, then the metadata; a failure part way leaves the previous
    bundle untouched and no staging file behind.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": dataclasses.asdict(dataset.config),
        "sites": [
            {
                "honeypot_id": site.honeypot_id,
                "ip": site.ip,
                "country": site.country,
                "asn": site.asn,
                "network_type": site.network_type.value,
            }
            for site in dataset.deployment.sites
        ],
        "honeypot_asns": dataset.deployment.honeypot_asns,
        "campaigns": [
            {
                "campaign_id": c.campaign_id,
                "tag": c.tag,
                "primary_hash": c.primary_hash,
                "hashes": c.hashes,
                "sessions_planned": c.sessions_planned,
                "n_clients": c.n_clients,
                "active_days": c.active_days,
                "honeypot_indices": c.honeypot_indices,
            }
            for c in dataset.campaigns
        ],
        "intel": [
            {
                "sha256": e.sha256,
                "tag": e.tag.value,
                "family": e.family,
                "first_submission_day": e.first_submission_day,
                "detections": e.detections,
            }
            for e in dataset.intel.entries()
        ],
        "envelopes": {k: v.tolist() for k, v in dataset.envelopes.items()},
    }
    with staged_file(directory / _META_FILE, "w") as fh:
        json.dump(meta, fh)
        save_npz(dataset.store, directory / _STORE_FILE)


def load_dataset(directory: PathLike) -> HoneyfarmDataset:
    """Load a dataset bundle saved by :func:`save_dataset`."""
    import numpy as np

    directory = Path(directory)
    store = load_npz(directory / _STORE_FILE)
    with open(directory / _META_FILE, encoding="utf-8") as fh:
        meta = json.load(fh)

    config = ScenarioConfig(**meta["config"])

    registry = GeoRegistry()
    sites = [
        HoneypotSite(
            honeypot_id=raw["honeypot_id"],
            ip=int(raw["ip"]),
            country=raw["country"],
            asn=int(raw["asn"]),
            network_type=NetworkType(raw["network_type"]),
        )
        for raw in meta["sites"]
    ]
    deployment = DeploymentPlan(
        sites=sites, registry=registry,
        honeypot_asns=list(meta["honeypot_asns"]),
    )

    intel = IntelDatabase()
    for raw in meta["intel"]:
        intel.register(
            raw["sha256"], ThreatTag(raw["tag"]), family=raw["family"],
            first_submission_day=int(raw["first_submission_day"]),
            detections=int(raw["detections"]),
        )

    campaigns = [
        CampaignRuntime(
            campaign_id=raw["campaign_id"],
            tag=raw["tag"],
            primary_hash=raw["primary_hash"],
            hashes=list(raw["hashes"]),
            sessions_planned=int(raw["sessions_planned"]),
            n_clients=int(raw["n_clients"]),
            active_days=list(raw["active_days"]),
            honeypot_indices=list(raw["honeypot_indices"]),
        )
        for raw in meta["campaigns"]
    ]

    envelopes = {k: np.asarray(v) for k, v in meta["envelopes"].items()}

    return HoneyfarmDataset(
        config=config,
        store=store,
        deployment=deployment,
        registry=registry,
        intel=intel,
        campaigns=campaigns,
        envelopes=envelopes,
    )
