"""Campaign realisation and session emission.

Takes full-scale :class:`~repro.agents.campaigns.CampaignSpec`s, scales them
to the scenario, recruits client pools from the population, profiles each
campaign's script through the real honeypot shell, registers hashes with
the threat-intel database, and emits the campaign's sessions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.campaigns import CampaignSpec
from repro.agents.population import ClientPopulation, ClientRole
from repro.agents.scripts import ScriptKind, build_script
from repro.intel.database import IntelDatabase
from repro.obs import inc as _metric_inc
from repro.obs import trace as _trace
from repro.simulation.rng import RngStream
from repro.store.store import HashBlockCsr, StoreBuilder
from repro.workload.config import ScenarioConfig
from repro.workload.emit import SessionEmitter
from repro.workload.samplers import cmd_columns, cmd_draws, protocol_array
from repro.workload.script_runner import ScriptProfile, ScriptRunner
from repro.workload.targets import (
    TargetSet,
    build_subset,
    locality_codes,
    locality_pools,
    redirect_local,
    subset_selector,
    subset_weights,
)

SECONDS_PER_DAY = 86_400

#: Script kinds that produce CMD+URI sessions (remote fetches).
URI_KINDS = (ScriptKind.DROPPER, ScriptKind.MINER)


@dataclass
class RealizedCampaign:
    """A campaign scaled to the scenario and ready to emit."""

    spec: CampaignSpec
    profile: ScriptProfile
    script_id: int
    hash_ids: Tuple[int, ...]
    pool: np.ndarray  # population client indices
    pool_weights: np.ndarray
    selector: TargetSet
    pot_subset: np.ndarray
    schedule: Dict[int, int] = field(default_factory=dict)
    password_id: int = -1
    #: day -> indices into `pool` of the members active that day. Bots
    #: rotate: most members participate in a short burst of the campaign,
    #: which keeps per-IP active-day counts low (paper Fig 13).
    members_by_day: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def category(self) -> str:
        return "CMD_URI" if self.spec.kind in URI_KINDS else "CMD"

    @property
    def total_sessions(self) -> int:
        return sum(self.schedule.values())


class CampaignEngine:
    """Realises campaigns against the plan's builder and emits them through
    a caller's emitter."""

    def __init__(
        self,
        config: ScenarioConfig,
        rng: RngStream,
        population: ClientPopulation,
        builder: StoreBuilder,
        runner: ScriptRunner,
        intel: IntelDatabase,
        hash_weights: np.ndarray,
        session_weights: np.ndarray,
        pot_countries: List[str],
    ):
        self.config = config
        self.rng = rng
        self.population = population
        self.builder = builder
        self.runner = runner
        self.intel = intel
        self.hash_weights = hash_weights
        self._subset_p, self._subset_cdf = subset_weights(hash_weights)
        self.session_weights = session_weights
        self.pot_countries = pot_countries
        self.n_pots = len(pot_countries)
        self._group_subsets: Dict[str, np.ndarray] = {}
        self._shared_pools: Dict[str, np.ndarray] = {}
        self._locality_codes = locality_codes(
            pot_countries, population.country_codes)
        self._locality_csr: Dict[str, Tuple[np.ndarray, ...]] = {}

    # -- realisation ------------------------------------------------------------

    def realize(self, spec: CampaignSpec) -> Optional[RealizedCampaign]:
        """Scale and materialise one campaign; None if it rounds to nothing."""
        rng = self.rng.child(f"campaign.{spec.campaign_id}")
        active_days = self._active_days(spec, rng)
        if not active_days:
            return None
        # Floor the scaled session count so a campaign can plausibly cover
        # its honeypot subset even at small scales (without the floor,
        # broad campaigns collapse to single-pot hashes and the Figure 18
        # pot-coverage distribution loses its head).
        subset_floor = 0 if spec.n_honeypots <= 0 else spec.n_honeypots // 2
        n_sessions = max(
            len(active_days),
            subset_floor,
            int(round(spec.sessions * self.config.scale)),
        )
        n_clients = self._scaled_clients(spec)

        pool = self._recruit_pool(spec, rng, n_clients)
        if len(pool) == 0:
            return None
        pool_weights = rng.lognormal_array(0.0, 1.0, len(pool))

        pot_subset = self._pot_subset(spec, rng)
        selector = subset_selector(pot_subset, self.session_weights)

        host_octet = (zlib.crc32(spec.campaign_id.encode()) % 200) + 10
        profile = self.runner.profile(
            build_script(
                spec.kind,
                token=spec.campaign_id,
                dropper_host=f"198.51.100.{host_octet}",
            )
        )
        script_id = self.builder.intern_script(profile.commands, profile.uris)
        hash_ids = tuple(self.builder.hashes.intern(h) for h in profile.hashes)

        if spec.in_intel_db:
            for h in profile.hashes:
                self.intel.register(
                    h, spec.tag, family=spec.campaign_id,
                    first_submission_day=active_days[0],
                    detections=5 + (zlib.crc32(h.encode()) % 40),
                )

        schedule = self._schedule(rng, active_days, n_sessions)
        if self.config.rotate_campaign_members:
            members_by_day = self._rotate_members(
                rng, sorted(schedule), len(pool)
            )
        else:
            everyone = np.arange(len(pool))
            members_by_day = {day: everyone for day in schedule}
        password_id = (
            self.builder.passwords.intern(spec.password)
            if spec.password
            else -1
        )
        _metric_inc("generator.campaigns_realized")
        return RealizedCampaign(
            spec=spec,
            profile=profile,
            script_id=script_id,
            hash_ids=hash_ids,
            pool=pool,
            pool_weights=pool_weights,
            selector=selector,
            pot_subset=pot_subset,
            schedule=schedule,
            password_id=password_id,
            members_by_day=members_by_day,
        )

    @staticmethod
    def _rotate_members(
        rng: RngStream, days: List[int], pool_size: int
    ) -> Dict[int, np.ndarray]:
        """Assign each pool member a short consecutive burst of days.

        Small pools (or short campaigns) keep every member active every
        day — the few-IP long-lived campaigns of Table 6 really do use the
        same addresses for months.  Bursts draw from the campaign stream's
        ``rotation`` child, created only when there are bursts to draw.
        """
        if pool_size <= 6 or len(days) <= 3:
            everyone = np.arange(pool_size)
            return {day: everyone for day in days}
        rng = rng.child("rotation")
        members_by_day: Dict[int, List[int]] = {day: [] for day in days}
        for member in range(pool_size):
            burst = min(len(days), rng.geometric(0.45))
            start = rng.randint(0, len(days) - burst + 1)
            for offset in range(burst):
                members_by_day[days[start + offset]].append(member)
        everyone = np.arange(pool_size)
        return {
            day: (np.asarray(members, dtype=np.int64) if members else everyone)
            for day, members in members_by_day.items()
        }

    def _active_days(self, spec: CampaignSpec, rng: RngStream) -> List[int]:
        n_days_window = self.config.n_days
        start = min(max(spec.start_day, 0), n_days_window - 1)
        span = min(spec.span_days, n_days_window - start)
        n_active = min(spec.n_active_days, span)
        if n_active <= 0:
            return []
        if not spec.intermittent or n_active >= span:
            return list(range(start, start + n_active))
        # Intermittent campaigns run in bursts separated by long pauses
        # ("some attacks are active for some time, then pause and
        # restart") — the pauses are what the 7/30-day freshness windows
        # of Figure 17 react to.
        n_bursts = max(2, min(5, 1 + rng.randint(1, 5)))
        n_bursts = min(n_bursts, n_active)
        burst_sizes = np.ones(n_bursts, dtype=np.int64)
        burst_sizes += rng.multinomial(n_active - n_bursts, np.ones(n_bursts))
        slack = span - n_active
        gaps = rng.multinomial(max(slack, 0), np.ones(n_bursts))
        days: List[int] = []
        cursor = start
        for size, gap in zip(burst_sizes, gaps):
            days.extend(range(cursor, cursor + int(size)))
            cursor += int(size) + int(gap)
        days = [d for d in days if d < n_days_window]
        return sorted(set(days))

    def _scaled_clients(self, spec: CampaignSpec) -> int:
        if spec.n_clients <= 10:
            return spec.n_clients
        scaled = int(round(spec.n_clients * self.config.ip_scale))
        return max(3, scaled)

    def _recruit_pool(
        self, spec: CampaignSpec, rng: RngStream, n_clients: int
    ) -> np.ndarray:
        # Marquee URI campaigns draw from the small dedicated CMD+URI
        # population; the URI mid-tail recruits from the broad intruder
        # pool so no single client accumulates hundreds of active days.
        role = (
            ClientRole.CMDURI
            if spec.kind in URI_KINDS and spec.dedicated_uri_pool
            else ClientRole.CMD
        )
        if spec.client_pool:
            shared = self._shared_pools.get(spec.client_pool)
            if shared is None or len(shared) < n_clients:
                shared = self.population.sample_intruders(
                    rng.child("pool"),
                    max(n_clients, len(shared) if shared is not None else 0),
                    role=role,
                    countries=spec.countries,
                )
                self._shared_pools[spec.client_pool] = shared
            return shared[:n_clients]
        return self.population.sample_intruders(
            rng.child("pool"), n_clients, role=role, countries=spec.countries
        )

    def _pot_subset(self, spec: CampaignSpec, rng: RngStream) -> np.ndarray:
        size = spec.n_honeypots if spec.n_honeypots > 0 else self.n_pots
        size = min(size, self.n_pots)
        if spec.pot_group:
            group = self._group_subsets.get(spec.pot_group)
            if group is None or len(group) < size:
                group = build_subset(
                    rng.child("pots"), self.n_pots,
                    max(size, len(group) if group is not None else 0),
                    self._subset_p, self._subset_cdf,
                )
                self._group_subsets[spec.pot_group] = group
            return group[:size]
        return build_subset(rng.child("pots"), self.n_pots, size,
                            self._subset_p, self._subset_cdf)

    def _schedule(
        self, rng: RngStream, active_days: List[int], n_sessions: int
    ) -> Dict[int, int]:
        n_days = len(active_days)
        if n_sessions < n_days:
            active_days = active_days[:n_sessions]
            n_days = n_sessions
        counts = np.ones(n_days, dtype=np.int64)
        remainder = n_sessions - n_days
        if remainder > 0:
            counts += rng.multinomial(remainder,
                                      rng.lognormal_array(0.0, 0.8, n_days))
        return {day: int(count) for day, count in zip(active_days, counts)}

    # -- emission ----------------------------------------------------------------

    def stream_for(self, campaign: RealizedCampaign,
                   start: Optional[int] = None) -> RngStream:
        """The emission stream of a whole campaign, or of the part of it
        that begins at schedule position ``start`` (split shards)."""
        name = f"emit.{campaign.spec.campaign_id}"
        if start is not None:
            name += f".p{start}"
        return self.rng.child(name)

    def emit_units(
        self,
        units: Sequence[Tuple[RealizedCampaign, Sequence[int], RngStream]],
        emitter: SessionEmitter,
    ) -> None:
        """Emit one shard's units (campaign, days, stream) as one block.

        Draw phase: each unit draws from its own stream, in order: one
        multinomial per day over the day's members, start times, protocol,
        ``cmd_draws``, pots, passwords, client versions.  Assembly phase:
        what draws nothing runs once over the shard's rows, which stay in
        unit, then day, then client-run order.  Each scheduled day holds at
        least one session and one ``generator.block`` event (under a tracer).
        """
        drawn, drawn_passwords, days_of, per_day, sessions = [], [], [], [], []
        self._cache_locality([campaign for campaign, _, _ in units])
        for campaign, days, rng in units:
            # Per distinct members array: its weights, normalised as
            # RngStream.multinomial normalises them, and its clients.
            ps, candidates, hoisted = [], [], {}
            for day in days:
                members = campaign.members_by_day[day]
                pair = hoisted.get(id(members))
                if pair is None:
                    pair = hoisted[id(members)] = (
                        RngStream.multinomial_p(campaign.pool_weights[members]),
                        campaign.pool[members])
                ps.append(pair[0])
                candidates.append(pair[1])
            ns = [campaign.schedule[day] for day in days]
            clients = np.repeat(np.concatenate(candidates),
                                np.concatenate(rng.multinomials(ns, ps)))
            m = len(clients)
            start = rng.uniform_array(0, SECONDS_PER_DAY, m)
            protocol = protocol_array(rng, m, campaign.spec.ssh_share)
            fields = cmd_draws(rng, m)
            pots = self._choose_pots(rng, campaign, clients,
                                     campaign.spec.kind in URI_KINDS)
            if campaign.password_id < 0:
                drawn_passwords.append(emitter.success_passwords(rng, m))
            drawn.append((clients, start, protocol, pots,
                          emitter.client_versions(rng, m, protocol), *fields))
            days_of.extend(days)
            per_day.extend(ns)
            sessions.append(m)
            _metric_inc("generator.campaign_days", len(days))
            _metric_inc(f"generator.sessions.{campaign.category}", m)
        clients, start, protocol, pots, versions, *fields = (
            np.concatenate(column) for column in zip(*drawn))
        campaigns = [campaign for campaign, _, _ in units]

        def per_unit(values, dtype=None) -> np.ndarray:
            return np.repeat(np.array(values, dtype=dtype), sessions)

        m = len(clients)
        duration, close, attempts = cmd_columns(
            fields, per_unit([c.profile.exec_seconds for c in campaigns]))
        password = per_unit([c.password_id for c in campaigns], np.int32)
        if drawn_passwords:
            password[password < 0] = np.concatenate(drawn_passwords)
        hash_ids = HashBlockCsr(
            [h for c in campaigns for h in c.hash_ids],
            [len(c.hash_ids) for c in campaigns]).take(per_unit(range(len(units))))
        pop = self.population
        emitter.builder.append_block(
            start_time=(np.repeat(np.array(days_of, dtype=np.float64), per_day)
                        * SECONDS_PER_DAY + start),
            duration=duration,
            honeypot_id=pots,
            protocol=protocol,
            client_ip=pop.ip[clients],
            client_asn=pop.asn[clients],
            client_country_id=pop.country[clients].astype(np.int32),
            n_attempts=attempts,
            login_success=np.ones(m, dtype=bool),
            script_id=per_unit([c.script_id for c in campaigns], np.int32),
            password_id=password,
            username_id=np.full(m, emitter.root_id, dtype=np.int32),
            hash_ids=hash_ids,
            close_reason_id=close,
            version_id=versions,
        )
        _metric_inc("generator.campaign_sessions", m)
        if _trace.enabled():
            for campaign, days, _ in units:
                cid = campaign.spec.campaign_id
                for day in days:
                    _trace.emit_block(f"emit.{cid}", day, campaign.schedule[day],
                                      campaign=cid, session_kind=campaign.category)

    def locality_pools(self, subsets: Sequence[np.ndarray]
                       ) -> List[Tuple[np.ndarray, ...]]:
        """:func:`~repro.workload.targets.locality_pools` of pot subsets,
        keyed by *population* country index."""
        return locality_pools(subsets, *self._locality_codes)

    def _cache_locality(self, campaigns: Sequence[RealizedCampaign]) -> None:
        """Build, in one pass, the locality pools of the URI campaigns among
        ``campaigns`` that have none yet (cached per campaign)."""
        todo = [c for c in campaigns if c.spec.kind in URI_KINDS
                and c.spec.campaign_id not in self._locality_csr]
        pools = self.locality_pools([c.pot_subset for c in todo])
        self._locality_csr.update(zip((c.spec.campaign_id for c in todo), pools))

    def _choose_pots(
        self,
        rng: RngStream,
        campaign: RealizedCampaign,
        clients: np.ndarray,
        locality_bias: bool,
    ) -> np.ndarray:
        """Per-session pot selection, with a locality bias for URI kinds.

        CMD+URI sessions originate markedly closer to their targets in the
        paper (Fig 16b); with probability ``uri_locality_bias`` a URI
        session is redirected to a pot in the client's own country (when
        the campaign's subset has one) or on its continent.
        """
        m = len(clients)
        pots = campaign.selector.choose_many(rng.random_array(m)).astype(
            np.int32, copy=True)
        if locality_bias:
            redirect_local(rng, pots, self.population.country[clients],
                           self.config.uri_locality_bias,
                           self._locality_csr[campaign.spec.campaign_id])
        return pots
