"""Attack-campaign specifications.

A campaign is the unit behind one file hash in the paper's analysis: a set
of client IPs running the same interaction script against a set of
honeypots over a span of days.  The *marquee* campaigns are calibrated to
the paper's Tables 4-6 (H1..H42): the dominant SSH-key trojan, the Mirai
family pinned to 75-77 honeypots with ``root``/``1234`` credentials, the
few-IP long-lived campaigns, the two miners, and so on.  A programmatic
*mid-tail* fills in the long tail of smaller campaigns.

All counts in the specs are full-scale (the paper's numbers); the workload
generator scales them down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.agents.scripts import ScriptKind
from repro.intel.tags import ThreatTag
from repro.simulation.clock import OBSERVATION_DAYS
from repro.simulation.rng import RngStream, weight_cdf


@dataclass
class CampaignSpec:
    """Specification of one attack campaign (full-scale numbers)."""

    campaign_id: str
    tag: ThreatTag
    kind: ScriptKind
    sessions: int  # total sessions over the campaign's lifetime
    n_clients: int  # unique client IPs
    start_day: int
    n_active_days: int  # days with at least one session
    n_honeypots: int  # 0 = all honeypots in the farm
    intermittent: bool = False  # active days have gaps ("pause and restart")
    pot_group: Optional[str] = None  # campaigns sharing a pinned pot subset
    client_pool: Optional[str] = None  # campaigns sharing a client pool
    password: Optional[str] = None  # fixed successful password, if any
    ssh_share: float = 0.75  # fraction of sessions over SSH
    countries: Optional[Sequence[Tuple[str, float]]] = None  # origin tilt
    in_intel_db: bool = True  # has a threat-intel entry
    #: Recruit from the dedicated CMD+URI client population (marquee URI
    #: campaigns) instead of the broad intruder pool (mid-tail droppers).
    dedicated_uri_pool: bool = False

    @property
    def span_days(self) -> int:
        """Calendar span needed to fit the active days.

        Intermittent campaigns spread their active days over a 3x span so
        their pauses regularly exceed the 7/30-day freshness windows of
        Figure 17 ("some attacks are active, pause, and restart").
        """
        if not self.intermittent:
            return self.n_active_days
        return min(int(self.n_active_days * 3.0) + 8, OBSERVATION_DAYS - self.start_day)


_MIRAI_COUNTRIES = [("CN", 0.25), ("TW", 0.15), ("BR", 0.12), ("IN", 0.10),
                    ("VN", 0.08), ("RU", 0.06), ("IR", 0.06), ("MX", 0.05),
                    ("TR", 0.04), ("TH", 0.04), ("ID", 0.05)]
_URI_COUNTRIES = [("US", 0.30), ("NL", 0.16), ("FR", 0.13), ("BG", 0.10),
                  ("RO", 0.09), ("DE", 0.08), ("GB", 0.05), ("RU", 0.05),
                  ("CA", 0.04)]


def marquee_campaigns() -> List[CampaignSpec]:
    """The named campaigns behind the paper's Tables 4-6."""
    mirai = ThreatTag.MIRAI
    trojan = ThreatTag.TROJAN
    malicious = ThreatTag.MALICIOUS
    miner = ThreatTag.MINER
    suspicious = ThreatTag.SUSPICIOUS
    unknown = ThreatTag.UNKNOWN
    drop = ScriptKind.DROPPER
    key = ScriptKind.KEY_INJECT
    tok = ScriptKind.FILE_TOKEN
    chp = ScriptKind.CHPASSWD

    specs = [
        # The dominant key-inject trojan: all pots, essentially every day.
        CampaignSpec("H1", trojan, key, 25_688_228, 118_924, 1, 484, 0),
        # Three-IP campaign, half the period with breaks, almost all pots.
        CampaignSpec("H2", unknown, tok, 153_672, 3, 100, 252, 202, intermittent=True),
        CampaignSpec("H3", trojan, key, 110_280, 12_698, 150, 119, 150),
        CampaignSpec("H4", mirai, drop, 105_102, 1_288, 120, 20, 203,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H5", mirai, drop, 96_523, 1_027, 20, 451, 221,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H6", malicious, tok, 82_000, 4, 210, 58, 92),
        CampaignSpec("H7", malicious, chp, 74_000, 3, 300, 33, 55),
        CampaignSpec("H8", mirai, drop, 61_000, 165, 260, 4, 178,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H9", trojan, key, 57_726, 43, 180, 220, 173, intermittent=True),
        CampaignSpec("H10", mirai, drop, 54_464, 488, 330, 6, 209,
                     countries=_MIRAI_COUNTRIES),
        # The two miners: one single-client month-long, one 200-client burst.
        CampaignSpec("H11", miner, ScriptKind.MINER, 48_000, 1, 240, 31, 212),
        CampaignSpec("H12", miner, ScriptKind.MINER, 43_000, 200, 190, 12, 190,
                     countries=_URI_COUNTRIES),
        CampaignSpec("H13", malicious, chp, 40_500, 310, 90, 88, 160),
        CampaignSpec("H14", malicious, tok, 38_000, 12, 60, 75, 140),
        CampaignSpec("H15", unknown, tok, 36_000, 850, 370, 42, 201),
        CampaignSpec("H16", malicious, tok, 34_000, 2_100, 140, 29, 188),
        CampaignSpec("H17", mirai, drop, 33_000, 95, 410, 14, 120,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H18", mirai, drop, 31_500, 640, 280, 11, 195,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H19", unknown, tok, 30_200, 1_900, 55, 7, 198),
        CampaignSpec("H20", trojan, chp, 29_800, 56, 230, 130, 99, intermittent=True),
        # High-client-count short campaigns (Table 5).
        CampaignSpec("H21", suspicious, tok, 16_670, 5_897, 200, 9, 205),
        CampaignSpec("H22", unknown, tok, 4_680, 2_213, 310, 16, 206),
        CampaignSpec("H23", unknown, tok, 1_803, 1_310, 250, 63, 126, intermittent=True),
        # The Mirai family: pinned 75-77 pot subset, root/1234 credentials.
        CampaignSpec("H24", mirai, drop, 2_279, 1_144, 45, 425, 77,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H25", mirai, drop, 2_250, 1_126, 47, 424, 77,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H26", mirai, drop, 2_187, 1_108, 49, 423, 77,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H27", malicious, tok, 1_208, 1_067, 160, 30, 113),
        CampaignSpec("H28", mirai, drop, 1_485, 752, 170, 305, 76,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H29", mirai, drop, 1_503, 750, 165, 312, 76,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H30", mirai, drop, 1_443, 736, 172, 305, 76,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H31", suspicious, tok, 1_191, 704, 350, 3, 185),
        CampaignSpec("H32", mirai, drop, 1_213, 610, 195, 281, 75,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        # Long-lived farm-wide Mirai variants.
        CampaignSpec("H33", mirai, drop, 29_227, 575, 15, 456, 221,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H34", trojan, key, 761, 448, 120, 301, 118, intermittent=True),
        CampaignSpec("H35", unknown, tok, 2_809, 416, 440, 8, 193),
        CampaignSpec("H36", mirai, drop, 6_213, 399, 130, 325, 220,
                     countries=_MIRAI_COUNTRIES),
        CampaignSpec("H37", mirai, drop, 4_875, 27, 175, 274, 217,
                     countries=_MIRAI_COUNTRIES),
        # Few-IP long-lived trojans ("frustrating that nobody blocks them").
        CampaignSpec("H38", trojan, key, 10_834, 4, 250, 172, 197, intermittent=True),
        CampaignSpec("H39", mirai, drop, 981, 19, 290, 159, 75,
                     pot_group="mirai77", client_pool="mirai-fam",
                     password="1234", countries=_MIRAI_COUNTRIES),
        CampaignSpec("H40", unknown, tok, 7_532, 5, 300, 151, 4, intermittent=True),
        CampaignSpec("H41", trojan, key, 8_309, 4, 310, 145, 193, intermittent=True),
        CampaignSpec("H42", trojan, chp, 660, 13, 320, 145, 63, intermittent=True),
    ]
    # CMD+URI campaigns (droppers, miners) get the URI-heavy country mix and
    # a different protocol split; key-inject/token campaigns are SSH-heavy.
    for spec in specs:
        if spec.kind in (ScriptKind.DROPPER,):
            spec.ssh_share = 0.62  # Table 1: CMD+URI is 62.45% SSH
            spec.dedicated_uri_pool = True
        elif spec.kind is ScriptKind.MINER:
            spec.ssh_share = 0.85
            spec.dedicated_uri_pool = True
        else:
            spec.ssh_share = 0.95
    return specs


#: Tag mix of the hash long tail (most midtail hashes stay unidentified).
_MIDTAIL_TAGS = [
    (ThreatTag.UNKNOWN, 0.48),
    (ThreatTag.MIRAI, 0.26),
    (ThreatTag.TROJAN, 0.12),
    (ThreatTag.MALICIOUS, 0.09),
    (ThreatTag.SUSPICIOUS, 0.05),
]

_MIDTAIL_KINDS = [
    (ScriptKind.FILE_TOKEN, 0.45),
    (ScriptKind.DROPPER, 0.30),
    (ScriptKind.KEY_INJECT, 0.15),
    (ScriptKind.CHPASSWD, 0.10),
]

_TAGS = [t for t, _ in _MIDTAIL_TAGS]
_TAG_CDF = weight_cdf([w for _, w in _MIDTAIL_TAGS])
_KINDS = [k for k, _ in _MIDTAIL_KINDS]
_KIND_CDF = weight_cdf([w for _, w in _MIDTAIL_KINDS])


def midtail_campaigns(
    count: int,
    rng: RngStream,
    intel_coverage: float = 0.04,
) -> List[CampaignSpec]:
    """Generate ``count`` long-tail campaigns.

    Durations follow the paper's Figure 22 (most hashes active a single
    day; Mirai-tagged ones rarely beyond 30 days; trojans longest), client
    counts follow the Figure 20 long tail, and only ``intel_coverage`` of
    them get a threat-intel entry (the paper finds entries for <2% of all
    hashes).
    """
    specs: List[CampaignSpec] = []
    # A few "variant flood" days: malware build farms push dozens of fresh
    # variants at once, producing the unique-hash spikes of Figure 17.
    flood_days = [rng.randint(20, OBSERVATION_DAYS - 5) for _ in range(6)]

    for i in range(count):
        tag = rng.choice(_TAGS, cdf=_TAG_CDF)
        kind = rng.choice(_KINDS, cdf=_KIND_CDF)
        n_days = _sample_duration(rng, tag)
        n_clients = _sample_clients(rng)
        is_flood = rng.bernoulli(0.12)
        if is_flood:
            n_days = 1
        # Session volume grows with clients and days, with heavy noise.
        per_client_day = rng.pareto(2.5, scale=1.0)
        sessions = max(
            n_days,
            int(n_clients * max(1, n_days // 3) * per_client_day),
        )
        n_pots = _sample_pots(rng, n_clients, n_days)
        if is_flood:
            start_day = flood_days[rng.randint(0, len(flood_days))]
        else:
            start_day = rng.randint(1, max(2, OBSERVATION_DAYS - n_days))
        specs.append(
            CampaignSpec(
                campaign_id=f"M{i + 1:05d}",
                tag=tag,
                kind=kind,
                sessions=sessions,
                n_clients=n_clients,
                start_day=start_day,
                n_active_days=n_days,
                n_honeypots=n_pots,
                intermittent=rng.bernoulli(0.35) and n_days > 5,
                ssh_share=0.62 if kind is ScriptKind.DROPPER else 0.95,
                # Mid-tail droppers originate from the US/EU-heavy hosting
                # space of Fig 23e; other mirai-tagged campaigns keep the
                # IoT-heavy origin mix.
                countries=(
                    _URI_COUNTRIES if kind is ScriptKind.DROPPER
                    else _MIRAI_COUNTRIES if tag is ThreatTag.MIRAI
                    else None
                ),
                in_intel_db=rng.bernoulli(intel_coverage),
            )
        )
    return specs


def _sample_duration(rng: RngStream, tag: ThreatTag) -> int:
    """Campaign active-day counts per Figure 22's per-tag ECDFs."""
    if rng.bernoulli(0.55):
        return 1
    if tag is ThreatTag.MIRAI:
        # Mostly under 30 days.
        return min(1 + int(rng.pareto(1.8, scale=1.0)), 45)
    if tag is ThreatTag.TROJAN:
        # Trojans linger longest.
        return min(1 + int(rng.pareto(0.9, scale=2.0)), OBSERVATION_DAYS - 10)
    return min(1 + int(rng.pareto(1.3, scale=1.0)), 200)


def _sample_clients(rng: RngStream) -> int:
    """Clients per campaign: heavy tail from 1 up to a few thousand."""
    if rng.bernoulli(0.45):
        return rng.randint(1, 4)  # single-actor campaigns
    return min(1 + int(rng.pareto(1.1, scale=2.0)), 4_000)


def _sample_pots(rng: RngStream, n_clients: int, n_days: int) -> int:
    """Honeypots contacted: grows with campaign size, capped at the farm."""
    base = 1 + int(rng.pareto(1.0, scale=1.0))
    reach = base + int(0.08 * n_clients) + 2 * n_days
    if rng.bernoulli(0.07):
        reach = max(reach, 180 + rng.randint(0, 42))
    return max(1, min(reach, 221))
