"""The honeyfarm's central collector.

Every honeypot reports per-session summaries to the collector, which stamps
client geolocation (country / ASN via the geo registry — the role MaxMind
plays in the paper) and appends the record to the columnar store.  It also
keeps a few running counters that operators watch on dashboards.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.geo.registry import GeoRegistry
from repro.honeypot.events import HoneypotEvent
from repro.honeypot.session import SessionSummary
from repro.obs import trace as _trace
from repro.store.records import SessionRecord
from repro.store.store import SessionStore, StoreBuilder


class FarmCollector:
    """Central sink for session summaries (and optionally raw events)."""

    def __init__(self, registry: Optional[GeoRegistry] = None, keep_events: bool = False):
        self.registry = registry
        self.builder = StoreBuilder()
        self.keep_events = keep_events
        self.events: list = []
        self.sessions_by_honeypot: Dict[str, int] = {}
        self.sessions_total = 0

    # -- sinks (plug into Honeypot) -----------------------------------------

    def on_event(self, event: HoneypotEvent) -> None:
        if self.keep_events:
            self.events.append(event)

    def on_summary(self, summary: SessionSummary) -> None:
        """Geo-stamp and store one finished session."""
        asn, country = -1, ""
        if self.registry is not None:
            lookup = self.registry.lookup(summary.client_ip)
            if lookup is not None:
                asn, country = lookup.asn, lookup.country
        record = SessionRecord.from_summary(summary, client_asn=asn, client_country=country)
        self.builder.append(record)
        self.sessions_total += 1
        self.sessions_by_honeypot[summary.honeypot_id] = (
            self.sessions_by_honeypot.get(summary.honeypot_id, 0) + 1
        )
        _trace.emit("collector.summary", trace_id=f"session:{summary.session_id}",
                    sim_time=summary.end_time, sensor=summary.honeypot_id,
                    hashes=len(summary.file_hashes))

    # -- results ----------------------------------------------------------------

    def build_store(self) -> SessionStore:
        return self.builder.build()
