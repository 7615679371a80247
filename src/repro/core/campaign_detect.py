"""Campaign detection by interaction-script similarity.

Related work (Shamsi et al., 2022) clusters honeypot attackers by their
behaviour; the paper itself correlates campaigns by file hash.  This
module detects campaigns *without* hashes: sessions are grouped by the
similarity of their command sequences (Jaccard over command sets, with a
union-find over similar script pairs), then the detected clusters can be
validated against the hash-based ground truth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.store.store import SessionStore


class UnionFind:
    """Path-compressed disjoint sets over integer ids."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = defaultdict(list)
        for x in range(len(self.parent)):
            out[self.find(x)].append(x)
        return dict(out)


def jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@dataclass
class DetectedCampaign:
    """A cluster of interaction scripts judged to be one campaign."""

    script_ids: List[int]
    n_sessions: int
    n_clients: int
    n_honeypots: int
    first_day: int
    last_day: int
    representative_commands: Tuple[str, ...]

    @property
    def span_days(self) -> int:
        return self.last_day - self.first_day + 1


def cluster_scripts(
    store: SessionStore, threshold: float = 0.6
) -> Dict[int, List[int]]:
    """Union scripts whose command-sets have Jaccard >= ``threshold``.

    Blocking by shared command keeps the pairwise comparison tractable:
    scripts are only compared when they share at least one command.
    """
    scripts = store.scripts
    command_sets = [frozenset(s.commands) for s in scripts]
    by_command: Dict[str, List[int]] = defaultdict(list)
    for script_id, commands in enumerate(command_sets):
        for command in commands:
            by_command[command].append(script_id)

    uf = UnionFind(len(scripts))
    compared: Set[Tuple[int, int]] = set()
    for members in by_command.values():
        if len(members) < 2 or len(members) > 2000:
            continue
        anchor = members[0]
        for other in members[1:]:
            pair = (anchor, other)
            if pair in compared:
                continue
            compared.add(pair)
            if jaccard(command_sets[anchor], command_sets[other]) >= threshold:
                uf.union(anchor, other)
    return uf.groups()


def detect_campaigns(
    store: SessionStore,
    threshold: float = 0.6,
    min_sessions: int = 2,
) -> List[DetectedCampaign]:
    """Detect campaigns from command behaviour alone."""
    if not store.scripts:
        return []
    clusters = cluster_scripts(store, threshold)

    # Map script cluster -> session statistics (vectorised per cluster).
    script_to_cluster = {}
    for root, members in clusters.items():
        for m in members:
            script_to_cluster[m] = root

    session_cluster = np.full(len(store), -1, dtype=np.int64)
    scripted = store.script_id >= 0
    session_cluster[scripted] = np.array(
        [script_to_cluster[int(s)] for s in store.script_id[scripted]]
    )

    campaigns: List[DetectedCampaign] = []
    for root, members in clusters.items():
        mask = session_cluster == root
        n_sessions = int(mask.sum())
        if n_sessions < min_sessions:
            continue
        campaigns.append(DetectedCampaign(
            script_ids=sorted(members),
            n_sessions=n_sessions,
            n_clients=len(np.unique(store.client_ip[mask])),
            n_honeypots=len(np.unique(store.honeypot[mask])),
            first_day=int(store.day[mask].min()),
            last_day=int(store.day[mask].max()),
            representative_commands=store.scripts[members[0]].commands,
        ))
    campaigns.sort(key=lambda c: -c.n_sessions)
    return campaigns


@dataclass
class ValidationResult:
    """How well behaviour clusters align with the hash ground truth."""

    n_detected: int
    n_hash_campaigns: int
    purity: float  # mean share of a cluster's sessions sharing its top hash
    recall: float  # share of hash campaigns captured inside some cluster


def validate_against_hashes(
    store: SessionStore, campaigns: List[DetectedCampaign]
) -> ValidationResult:
    """Score detected clusters against hash-identified campaigns."""
    script_to_cluster: Dict[int, int] = {}
    for idx, campaign in enumerate(campaigns):
        for script_id in campaign.script_ids:
            script_to_cluster[script_id] = idx

    # For every session with both a script and hashes, record its cluster
    # and primary hash.
    cluster_hash_counts: Dict[int, Dict[int, int]] = defaultdict(
        lambda: defaultdict(int))
    hash_best_cluster: Dict[int, Dict[int, int]] = defaultdict(
        lambda: defaultdict(int))
    for i in range(len(store)):
        script_id = int(store.script_id[i])
        if script_id < 0 or not store.hash_ids[i]:
            continue
        cluster = script_to_cluster.get(script_id)
        if cluster is None:
            continue
        primary = store.hash_ids[i][0]
        cluster_hash_counts[cluster][primary] += 1
        hash_best_cluster[primary][cluster] += 1

    purities = []
    for counts in cluster_hash_counts.values():
        total = sum(counts.values())
        purities.append(max(counts.values()) / total if total else 0.0)

    n_hash_campaigns = len(hash_best_cluster)
    captured = sum(1 for counts in hash_best_cluster.values() if counts)

    return ValidationResult(
        n_detected=len(campaigns),
        n_hash_campaigns=n_hash_campaigns,
        purity=float(np.mean(purities)) if purities else 0.0,
        recall=captured / n_hash_campaigns if n_hash_campaigns else 0.0,
    )
