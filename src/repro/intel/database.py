"""Hash-intelligence database (VirusTotal stand-in)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.intel.tags import ThreatTag


@dataclass
class IntelEntry:
    """What a threat-intel lookup returns for one file hash."""

    sha256: str
    tag: ThreatTag
    family: str = ""
    first_submission_day: int = 0
    detections: int = 0


class IntelDatabase:
    """In-memory hash -> :class:`IntelEntry` map with coverage accounting.

    Real-world coverage is poor (the paper finds entries for <2% of its
    hashes); lookups of unindexed hashes return None, and the analysis layer
    treats those as :attr:`ThreatTag.UNKNOWN`, mirroring the paper.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, IntelEntry] = {}
        self.lookups = 0
        self.hits = 0

    def register(
        self,
        sha256: str,
        tag: ThreatTag,
        family: str = "",
        first_submission_day: int = 0,
        detections: int = 0,
    ) -> IntelEntry:
        entry = IntelEntry(
            sha256=sha256,
            tag=tag,
            family=family,
            first_submission_day=first_submission_day,
            detections=detections,
        )
        self._entries[sha256] = entry
        return entry

    def lookup(self, sha256: str) -> Optional[IntelEntry]:
        self.lookups += 1
        entry = self._entries.get(sha256)
        if entry is not None:
            self.hits += 1
        return entry

    def tag_of(self, sha256: str) -> ThreatTag:
        """Tag for a hash; UNKNOWN when the database has no entry."""
        entry = self._entries.get(sha256)
        return entry.tag if entry is not None else ThreatTag.UNKNOWN

    def coverage(self, hashes: Iterable[str]) -> float:
        """Fraction of ``hashes`` the database has entries for."""
        total = 0
        known = 0
        for h in hashes:
            total += 1
            if h in self._entries:
                known += 1
        return known / total if total else 0.0

    def entries(self) -> List[IntelEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sha256: str) -> bool:
        return sha256 in self._entries
