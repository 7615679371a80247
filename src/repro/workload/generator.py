"""The 15-month trace generator.

Orchestrates deployment, population, campaigns and background traffic into
one :class:`~repro.workload.dataset.HoneyfarmDataset`:

1. build the farm (221 pots / 55 countries / 65 ASes) and the synthetic geo
   registry;
2. build the client population (roles, lifetimes, breadth, country mix) and
   per-client honeypot target sets;
3. realise the attack campaigns (marquee + mid-tail), profiling each script
   through the real honeypot shell, and emit their sessions;
4. emit background traffic per category (scanning, scouting, NO_CMD
   including the Russian-datacenter prefix, recon-only CMD, uncatalogued
   CMD+URI droppers and singleton file writers) following the calibrated
   daily envelopes;
5. freeze the columnar store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.agents.campaigns import marquee_campaigns, midtail_campaigns
from repro.agents.population import (
    ClientRole,
    PopulationConfig,
    build_population,
)
from repro.agents.scripts import ScriptKind, build_script
from repro.farm.deployment import DeploymentPlan, build_default_deployment
from repro.geo.registry import GeoRegistry, NetworkType
from repro.intel.database import IntelDatabase
from repro.obs import get_metrics, inc as _metric_inc
from repro.obs import trace as _trace
from repro.obs.trace import emit_block as _trace_block
from repro.simulation.rng import RngStream
from repro.store.store import HashBlockCsr, StoreBuilder
from repro.workload.blocks import make_emitter
from repro.workload.campaign_engine import CampaignEngine, RealizedCampaign
from repro.workload.config import SSH_SHARE, ScenarioConfig
from repro.workload.dataset import CampaignRuntime, HoneyfarmDataset
from repro.workload.samplers import (
    cmd_fields,
    fail_log_fields,
    no_cmd_fields,
    no_cred_fields,
    protocol_array,
)
from repro.workload.script_runner import ScriptRunner
from repro.workload.targets import TargetIndex, TargetSet, TargetTable, redirect_local
from repro.workload.temporal import (
    build_envelopes,
    honeypot_weight_vectors,
    ru_edge_weight,
    sample_active_days,
)

SECONDS_PER_DAY = 86_400

#: Background categories in emission order.  Each name is also the
#: category's stream name and its shard kind.
BACKGROUND = ("bg_cmd", "bg_uri", "no_cred", "fail_log", "no_cmd")

_ROLE_CATEGORY = [
    (ClientRole.SCAN, "NO_CRED"),
    (ClientRole.SCOUT, "FAIL_LOG"),
    (ClientRole.NOCMD, "NO_CMD"),
    (ClientRole.CMD, "CMD"),
    (ClientRole.CMDURI, "CMD_URI"),
]


def _rescale_schedule(schedule: Dict[int, int], factor: float) -> Dict[int, int]:
    """Scale a campaign's per-day session counts by ``factor``.

    The result sums to ``max(1, round(total * factor))``.  When that is no
    more than the number of days, the earliest days keep one session each
    and the rest are dropped, so realised campaigns never vanish; otherwise
    every day keeps at least one session and the floors' deficit is handed
    out by largest remainder, as :func:`_daily_budgets` does.
    """
    if factor >= 1.0:
        return schedule
    new_total = max(1, int(round(sum(schedule.values()) * factor)))
    days = sorted(schedule)
    if new_total <= len(days):
        return {day: 1 for day in days[:new_total]}
    raw = {day: schedule[day] * factor for day in days}
    out = {day: max(1, int(raw[day])) for day in days}
    deficit = new_total - sum(out.values())
    if deficit > 0:
        by_remainder = sorted(days, key=lambda d: (-(raw[d] - int(raw[d])), d))
        for day in by_remainder[:deficit]:
            out[day] += 1
    # Days floored up to one session can leave a surplus: trim it from the
    # largest days.
    surplus = sum(out.values()) - new_total
    for day in sorted(out, key=lambda d: -out[d]):
        if surplus <= 0:
            break
        removable = min(surplus, out[day] - 1)
        out[day] -= removable
        surplus -= removable
    return out


def _daily_budgets(total: int, envelope: np.ndarray) -> np.ndarray:
    """Integer daily budgets summing exactly to ``total`` (largest remainder)."""
    raw = envelope * total
    floors = np.floor(raw).astype(np.int64)
    remainder = int(total - floors.sum())
    if remainder > 0:
        order = np.argsort(-(raw - floors))
        floors[order[:remainder]] += 1
    return floors


class _DayRuns:
    """One range's per-day session runs, joined once for the vector draws.

    ``add`` keeps a day's client runs (empty runs are dropped) with an
    optional flag marking a special run (FAIL_LOG spike, NO_CMD Russian
    prefix); ``arrays`` returns every session's client and day in order.
    """

    __slots__ = ("clients", "days", "counts", "flagged")

    def __init__(self) -> None:
        self.clients: List[np.ndarray] = []
        self.days: List[int] = []
        self.counts: List[int] = []
        self.flagged: List[bool] = []

    def add(self, day: int, clients: np.ndarray, flag: bool = False) -> bool:
        if not len(clients):
            return False
        self.clients.append(clients)
        self.days.append(day)
        self.counts.append(len(clients))
        self.flagged.append(flag)
        return True

    def __bool__(self) -> bool:
        return bool(self.counts)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(client index per session, day per session as float)."""
        day_of = np.repeat(np.asarray(self.days, dtype=np.float64), self.counts)
        return np.concatenate(self.clients), day_of

    def flags(self) -> np.ndarray:
        """Per-session flag of the run each session belongs to."""
        return np.repeat(np.asarray(self.flagged, dtype=bool), self.counts)


class _RuPrefixClients:
    """The Russian-datacenter prefix behind most edge-period NO_CMD traffic."""

    def __init__(self, registry: GeoRegistry, rng: RngStream, count: int,
                 country_index: int):
        record = registry.register_as(
            country="RU", network_type=NetworkType.DATACENTER, name="RU-DC-NOCMD"
        )
        pool = record.pool()
        self.ips = np.array([pool.sample(rng) for _ in range(count)], dtype=np.uint32)
        self.asn = record.asn
        self.country_index = country_index
        self.rates = np.array([rng.lognormal(0.0, 0.6) for _ in range(count)])
        self.rates /= self.rates.sum()


class TraceGenerator:
    """Stateful generator for one scenario run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = RngStream(config.seed, "workload")
        self.registry = GeoRegistry()
        self.deployment: DeploymentPlan = build_default_deployment(
            self.rng.child("deployment"), self.registry
        )
        self.pot_countries = [site.country for site in self.deployment.sites]
        self.n_pots = len(self.deployment.sites)

        self.builder = StoreBuilder()
        # Intern honeypots in site order so store index == deployment index.
        for site in self.deployment.sites:
            self.builder.honeypots.intern(site.honeypot_id)

        self.envelopes = build_envelopes(self.rng.child("envelopes"), config.n_days)
        self.population = build_population(
            PopulationConfig(n_clients=config.n_clients,
                             n_always_on=max(4, int(120 * config.ip_scale))),
            self.registry,
            self.rng.child("population"),
        )
        # Intern client countries so store ids == population country indices.
        for code in self.population.country_codes:
            self.builder.countries.intern(code)

        self.emitter = make_emitter(self.builder)
        session_w, client_w, hash_w = honeypot_weight_vectors(
            self.rng.child("potweights"), self.n_pots
        )
        if not config.decorrelate_pot_weights:
            # Ablation: one attractiveness vector drives everything, so
            # the "top pots differ per metric" findings disappear.
            client_w = session_w
            hash_w = session_w
        self.session_weights = session_w
        self.client_weights = client_w
        self.hash_weights = hash_w
        self.target_index = TargetIndex(
            self.rng.child("targets"), client_w, session_w
        )
        self.targets: List[TargetSet] = self.target_index.build_for(
            self.population.breadth
        )
        self.target_table = TargetTable(self.targets)

        self.runner = ScriptRunner()
        self.intel = IntelDatabase()
        self.campaign_hash_weights = hash_w / hash_w.sum()
        self.engine = CampaignEngine(
            config=config,
            rng=self.rng.child("campaigns"),
            population=self.population,
            emitter=self.emitter,
            runner=self.runner,
            intel=self.intel,
            hash_weights=self.campaign_hash_weights,
            session_weights=session_w,
            pot_countries=self.pot_countries,
        )

        self._day_buckets: Dict[str, List[List[int]]] = {}
        #: Background daily budgets and setups (:meth:`_plan_background`).
        self.budgets: Dict[str, np.ndarray] = {}
        self.realized: List[RealizedCampaign] = []
        self._locality_cache: Optional[Tuple[np.ndarray, ...]] = None

    # -- client activity calendar --------------------------------------------

    def _build_day_buckets(self) -> None:
        n_days = self.config.n_days
        buckets: Dict[str, List[List[int]]] = {
            cat: [[] for _ in range(n_days)] for _, cat in _ROLE_CATEGORY
        }
        rng = self.rng.child("calendar")
        pop = self.population
        scan_env = self.envelopes["NO_CRED"]
        for i in range(len(pop)):
            days = sample_active_days(
                rng, int(pop.first_day[i]), int(pop.n_days[i]), scan_env
            )
            mask = int(pop.roles[i])
            for role, cat in _ROLE_CATEGORY:
                if mask & int(role):
                    cat_buckets = buckets[cat]
                    for d in days:
                        if d < n_days:
                            cat_buckets[d].append(i)
        self._day_buckets = buckets

    def _active_clients(self, category: str, day: int, rng: RngStream) -> np.ndarray:
        bucket = self._day_buckets[category][day]
        if bucket:
            return np.asarray(bucket, dtype=np.int64)
        role = next(r for r, cat in _ROLE_CATEGORY if cat == category)
        candidates = self.population.with_role(role)
        if len(candidates) == 0:
            return np.zeros(0, dtype=np.int64)
        k = min(5, len(candidates))
        picked = rng.choice_indices(len(candidates), size=k, replace=False)
        return candidates[np.asarray(picked)]

    # -- shared emission helpers ------------------------------------------------

    def _day_sessions(
        self, category: str, rng: RngStream, day: int, n: int
    ) -> np.ndarray:
        """One day's ``n`` sessions spread over its active clients by rate,
        as contiguous runs of each client's index."""
        clients = self._active_clients(category, day, rng)
        if len(clients) == 0:
            return clients
        counts = rng.multinomial(n, self.population.rate[clients])
        nz = np.nonzero(counts)[0]
        return np.repeat(clients[nz], counts[nz])

    def _pots_for(self, rng: RngStream, session_clients: np.ndarray) -> np.ndarray:
        """Each session's pot, chosen within its client's target set."""
        u = rng.random_array(len(session_clients))
        return self.target_table.choose(session_clients, u)

    def _start_times(self, rng: RngStream, day_of: np.ndarray) -> np.ndarray:
        """Uniform start times within each session's day."""
        return day_of * SECONDS_PER_DAY + rng.uniform_array(
            0, SECONDS_PER_DAY, len(day_of))

    def _population_block(
        self, idx: np.ndarray, day_of: np.ndarray, rng: RngStream, **columns
    ) -> None:
        """Append population clients ``idx``' sessions with start times
        drawn in their days; ``columns`` carry the remaining fields."""
        pop = self.population
        self.emitter.append_block(
            start_time=self._start_times(rng, day_of),
            client_ip=pop.ip[idx],
            client_asn=pop.asn[idx],
            client_country=pop.country[idx].astype(np.int32),
            **columns,
        )

    # -- category emitters ---------------------------------------------------------
    #
    # Each ``_*_range`` emits the days ``[start, stop)`` of one category as
    # ONE block from one stream: the per-day loop only assigns the day's
    # sessions to clients (and emits the per-day trace event and counter);
    # every other column is drawn once over the whole range.  The serial
    # generator calls them over the whole window with the category stream,
    # the sharded pipeline per shard with ``<category>.r<start>``.

    def _no_cred_range(
        self, rng: RngStream, start: int, stop: int, budgets: np.ndarray
    ) -> None:
        runs = _DayRuns()
        for day in range(start, stop):
            n = int(budgets[day])
            if n <= 0:
                continue
            idx = self._day_sessions("NO_CRED", rng, day, n)
            if runs.add(day, idx):
                _metric_inc("generator.days.NO_CRED")
                _trace_block("no_cred", day, len(idx))
        if not runs:
            return
        idx, day_of = runs.arrays()
        m = len(idx)
        duration, close = no_cred_fields(rng, m)
        protocol = protocol_array(rng, m, SSH_SHARE["NO_CRED"])
        neg = np.full(m, -1, dtype=np.int32)
        self._population_block(
            idx, day_of, rng,
            duration=duration,
            honeypot=self._pots_for(rng, idx),
            protocol=protocol,
            n_attempts=np.zeros(m, dtype=np.uint16),
            login_success=np.zeros(m, dtype=bool),
            script_id=neg,
            password_id=neg,
            username_id=neg,
            hash_ids=None,
            close_reason=close,
            version_id=self.emitter.client_versions(rng, m, protocol),
        )
        _metric_inc("generator.sessions.NO_CRED", m)

    def _fail_log_setup(self) -> Tuple[set, np.ndarray, np.ndarray]:
        """Fixed spike configuration: days, source clients, target pots.

        The big FAIL_LOG spikes (2022-09-05, 2022-11-05) are driven by a
        handful of source IPs hammering a small pot subset — the paper
        notes spikes are "often due to activity seen by only a small
        subset of the honeypots" (Fig 9).
        """
        from repro.workload.temporal import DAY_SPIKE_NOV5, DAY_SPIKE_SEP5
        spike_days = {DAY_SPIKE_SEP5, DAY_SPIKE_SEP5 + 1, DAY_SPIKE_NOV5}
        scout_clients = self.population.with_role(ClientRole.SCOUT)
        spike_rng = self.rng.child("fail_log.spikes")
        if len(scout_clients):
            picked = spike_rng.choice_indices(
                len(scout_clients), size=min(3, len(scout_clients)),
                replace=False)
            spike_client_idx = scout_clients[np.asarray(picked)]
        else:
            spike_client_idx = np.zeros(0, dtype=np.int64)
        spike_pots = np.argsort(self.session_weights)[::-1][:3].astype(np.int64)
        return spike_days, spike_client_idx, spike_pots

    def _fail_log_range(
        self, rng: RngStream, start: int, stop: int, budgets: np.ndarray
    ) -> None:
        """FAIL_LOG days ``[start, stop)``; on spike days the surplus over
        the median day comes first, from a few clients against a few pots
        (paper Fig 9)."""
        spike_days, spike_clients, spike_pots = self.fail_log_spike
        positive = budgets[budgets > 0]
        baseline = float(np.median(positive)) if len(positive) else 0.0
        runs = _DayRuns()
        for day in range(start, stop):
            n = int(budgets[day])
            if n <= 0:
                continue
            if day in spike_days and len(spike_clients) and n > baseline:
                surplus = int(n - baseline)
                counts = rng.multinomial(surplus, np.ones(len(spike_clients)))
                nz = np.nonzero(counts)[0]
                idx = np.repeat(spike_clients[nz], counts[nz])
                if runs.add(day, idx, flag=True):
                    _metric_inc("generator.spike_sessions.FAIL_LOG", len(idx))
                    _trace_block("fail_log", day, len(idx), spike=True)
                n -= surplus
                if n <= 0:
                    continue
            idx = self._day_sessions("FAIL_LOG", rng, day, n)
            if runs.add(day, idx):
                _metric_inc("generator.days.FAIL_LOG")
                _trace_block("fail_log", day, len(idx))
        if not runs:
            return
        idx, day_of = runs.arrays()
        is_spike = runs.flags()
        m = len(idx)
        protocol = protocol_array(rng, m, SSH_SHARE["FAIL_LOG"])
        duration, close, attempts = fail_log_fields(rng, m, protocol == 0)
        users, passwords = self.emitter.fail_credentials(rng, m)
        u = rng.random_array(m)
        pots = np.empty(m, dtype=np.int32)
        regular = ~is_spike
        pots[regular] = self.target_table.choose(idx[regular], u[regular])
        pots[is_spike] = spike_pots[(u[is_spike] * len(spike_pots)).astype(np.int64)]
        self._population_block(
            idx, day_of, rng,
            duration=duration,
            honeypot=pots,
            protocol=protocol,
            n_attempts=attempts,
            login_success=np.zeros(m, dtype=bool),
            script_id=np.full(m, -1, dtype=np.int32),
            password_id=passwords,
            username_id=users,
            hash_ids=None,
            close_reason=close,
            version_id=self.emitter.client_versions(rng, m, protocol),
        )
        _metric_inc("generator.sessions.FAIL_LOG", m)

    def _no_cmd_setup(self) -> Tuple[_RuPrefixClients, np.ndarray]:
        ru_count = max(8, int(48 * self.config.ip_scale * 10))
        ru_index = self.population.country_codes.index("RU")
        ru = _RuPrefixClients(self.registry, self.rng.child("no_cmd.ru"),
                              ru_count, ru_index)
        # The RU prefix targets a broad, fixed slice of the farm.
        ru_pots = np.arange(self.n_pots, dtype=np.int32)
        return ru, ru_pots

    def _no_cmd_range(
        self, rng: RngStream, start: int, stop: int, budgets: np.ndarray
    ) -> None:
        """NO_CMD days ``[start, stop)``: each day's Russian-prefix share
        (indices into ``self.ru``) first, then the regular population
        clients."""
        ru, ru_pots = self.ru, self.ru_pots
        runs = _DayRuns()
        for day in range(start, stop):
            n = int(budgets[day])
            if n <= 0:
                continue
            n_ru = int(round(n * ru_edge_weight(day)))
            if n_ru > 0:
                counts = rng.multinomial(n_ru, ru.rates)
                nz = np.nonzero(counts)[0]
                ru_idx = np.repeat(nz, counts[nz])
                if runs.add(day, ru_idx, flag=True):
                    _trace_block("no_cmd", day, len(ru_idx), ru=True)
            if n - n_ru > 0:
                idx = self._day_sessions("NO_CMD", rng, day, n - n_ru)
                if runs.add(day, idx):
                    _trace_block("no_cmd", day, len(idx))
            _metric_inc("generator.days.NO_CMD")
        if not runs:
            return
        idx, day_of = runs.arrays()
        is_ru = runs.flags()
        m = len(idx)
        duration, close, attempts = no_cmd_fields(rng, m)
        protocol = protocol_array(rng, m, SSH_SHARE["NO_CMD"])
        u = rng.random_array(m)
        regular = ~is_ru
        pop = self.population
        pots = np.empty(m, dtype=np.int32)
        pots[regular] = self.target_table.choose(idx[regular], u[regular])
        pots[is_ru] = ru_pots[(u[is_ru] * len(ru_pots)).astype(np.int64)]
        client_ip = np.empty(m, dtype=np.uint32)
        client_ip[regular] = pop.ip[idx[regular]]
        client_ip[is_ru] = ru.ips[idx[is_ru]]
        client_asn = np.full(m, ru.asn, dtype=np.int64)
        client_asn[regular] = pop.asn[idx[regular]]
        client_country = np.full(m, ru.country_index, dtype=np.int32)
        client_country[regular] = pop.country[idx[regular]]
        self.emitter.append_block(
            start_time=self._start_times(rng, day_of),
            duration=duration,
            honeypot=pots,
            protocol=protocol,
            client_ip=client_ip,
            client_asn=client_asn,
            client_country=client_country,
            n_attempts=attempts,
            login_success=np.ones(m, dtype=bool),
            script_id=np.full(m, -1, dtype=np.int32),
            password_id=self.emitter.success_passwords(rng, m),
            username_id=np.full(m, self.emitter.root_id, dtype=np.int32),
            hash_ids=None,
            close_reason=close,
            version_id=self.emitter.client_versions(rng, m, protocol),
        )
        _metric_inc("generator.sessions.NO_CMD", m)

    def _realize_campaigns(self) -> None:
        """Realise and rescale all campaigns without emitting any sessions."""
        rng = self.rng.child("midtail")
        specs = marquee_campaigns() + midtail_campaigns(
            self.config.n_midtail_campaigns, rng, self.config.intel_coverage
        )
        realized = [self.engine.realize(spec) for spec in specs]
        self.realized = [r for r in realized if r is not None]

        # Clamp total campaign volume per category so background traffic
        # retains its budget share. Rescaling trims a campaign's schedule
        # (dropping active days when necessary) instead of flooring every
        # day at one session, which would blow the budget at small scales.
        for category, cap_share in (("CMD", 0.72), ("CMD_URI", 0.70)):
            cap = int(self.config.sessions_for(category) * cap_share)
            total = sum(
                r.total_sessions for r in self.realized if r.category == category
            )
            if total > cap > 0:
                factor = cap / total
                for r in self.realized:
                    if r.category == category:
                        r.schedule = _rescale_schedule(r.schedule, factor)

    def _emit_campaigns(self) -> None:
        self._realize_campaigns()
        for r in self.realized:
            self.engine.emit(r)

    # -- singleton writers ---------------------------------------------------------
    #
    # Background intruders whose one-off files give singleton hashes.  Each
    # writer runs a personal FILE_TOKEN script against a single honeypot —
    # these are the >60% of all hashes the paper finds at exactly one
    # honeypot.  Selection, the per-writer plan and the per-session columns
    # are three steps so the sharded pipeline can plan all writers once and
    # emit them in slices.

    def _singleton_writers(self, rng: RngStream) -> np.ndarray:
        """Singleton-writer selection (population indices)."""
        cmd_clients = self.population.with_role(ClientRole.CMD)
        n_writers = min(self.config.n_singleton_hashes, len(cmd_clients))
        if n_writers == 0:
            return np.zeros(0, dtype=np.int64)
        picked = rng.choice_indices(len(cmd_clients), size=n_writers, replace=False)
        return cmd_clients[np.asarray(picked)]

    def _singleton_plan(
        self, rng: RngStream, writers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(target pot, session count) per writer: two vector draws.

        A singleton file surfaces wherever its writer happened to intrude;
        spreading them uniformly over the writer's targets keeps the top
        pots' unique-hash coverage small (the paper's strongest diversity
        argument: the best pot sees <5%).
        """
        table = self.target_table
        lo = table.offsets[writers]
        pick = rng.randint_array(0, table.offsets[writers + 1] - lo)
        pots = table.pots[lo + pick]
        n_sessions = 1 + rng.randint_array(0, np.full(len(writers), 3))
        return pots, n_sessions

    def _singletons_range(
        self,
        rng: RngStream,
        writers: np.ndarray,
        pots: np.ndarray,
        n_sessions: np.ndarray,
    ) -> int:
        """Emit the writers' sessions as one block (writer order, then
        sessions). Returns the session count."""
        pop = self.population
        script_ids = np.empty(len(writers), dtype=np.int32)
        exec_secs = np.empty(len(writers))
        hash_values: List[int] = []
        hash_lengths = np.empty(len(writers), dtype=np.int64)
        for k, w in enumerate(writers.tolist()):
            token = f"bg-{w}-{int(pop.ip[w])}"
            profile = self.runner.profile(build_script(ScriptKind.FILE_TOKEN, token=token))
            script_ids[k] = self.builder.intern_script(profile.commands, profile.uris)
            hash_values.extend(self.builder.hashes.intern(h) for h in profile.hashes)
            hash_lengths[k] = len(profile.hashes)
            exec_secs[k] = profile.exec_seconds
            _trace.emit("generator.block", trace_id=f"singletons.w{w}",
                        sim_time=int(pop.first_day[w]) * 86400.0,
                        category="singletons", writer=w,
                        sessions=int(n_sessions[k]))
        m = int(n_sessions.sum())
        if m == 0:
            return 0
        row = np.repeat(np.arange(len(writers)), n_sessions)
        idx = writers[row]
        offset = rng.randint_array(0, np.maximum(1, pop.n_days[idx]))
        day_of = np.minimum(pop.first_day[idx] + offset, self.config.n_days - 1)
        duration, close, attempts = cmd_fields(rng, m, exec_secs[row])
        protocol = protocol_array(rng, m, SSH_SHARE["CMD"])
        self._population_block(
            idx, day_of.astype(np.float64), rng,
            duration=duration,
            honeypot=pots[row],
            protocol=protocol,
            n_attempts=attempts,
            login_success=np.ones(m, dtype=bool),
            script_id=script_ids[row],
            password_id=self.emitter.success_passwords(rng, m),
            username_id=np.full(m, self.emitter.root_id, dtype=np.int32),
            hash_ids=HashBlockCsr(hash_values, hash_lengths).take(row),
            close_reason=close,
            version_id=np.full(m, -1, dtype=np.int32),
        )
        _metric_inc("generator.sessions.singletons", m)
        return m

    def _emit_singleton_writers(self) -> int:
        """Serial path: select, plan and emit every writer from one stream.
        Returns the session count."""
        # Explicit sequential handoff: this stream is passed to the
        # sampler/emit helpers, which draw on its behalf in one fixed
        # order inside one task — not shared cross-module state.
        rng = self.rng.child("singletons")  # repro: lint-ok[rng-lineage]
        writers = self._singleton_writers(rng)
        pots, n_sessions = self._singleton_plan(rng, writers)
        return self._singletons_range(rng, writers, pots, n_sessions)

    # -- background planning ---------------------------------------------------------

    def _plan_background(self, singleton_sessions: int) -> None:
        """Daily budgets and fixed setups of the background categories.

        CMD and CMD+URI background traffic fills what the realised
        campaigns (and, for CMD, the ``singleton_sessions``) leave of each
        category's share.  Draws only from the setups' own named streams.
        """
        cfg = self.config
        planned = {"CMD": singleton_sessions, "CMD_URI": 0}
        for r in self.realized:
            planned[r.category] += r.total_sessions
        self.budgets = {
            "bg_cmd": _daily_budgets(
                max(0, cfg.sessions_for("CMD") - planned["CMD"]),
                self.envelopes["CMD"]),
            "bg_uri": self._bg_uri_budgets(
                max(0, cfg.sessions_for("CMD_URI") - planned["CMD_URI"])),
        }
        for kind, category in (("no_cred", "NO_CRED"), ("fail_log", "FAIL_LOG"),
                               ("no_cmd", "NO_CMD")):
            self.budgets[kind] = _daily_budgets(
                cfg.sessions_for(category), self.envelopes[category])
        self.fail_log_spike = self._fail_log_setup()
        self.ru, self.ru_pots = self._no_cmd_setup()

    def _background_range(
        self, kind: str, rng: RngStream, start: int, stop: int
    ) -> None:
        """Emit days ``[start, stop)`` of background category ``kind``."""
        emit = {
            "bg_cmd": self._bg_cmd_range,
            "bg_uri": self._bg_uri_range,
            "no_cred": self._no_cred_range,
            "fail_log": self._fail_log_range,
            "no_cmd": self._no_cmd_range,
        }[kind]
        emit(rng, start, stop, self.budgets[kind])

    # -- background CMD / CMD+URI ----------------------------------------------------

    def _bg_cmd_profiles(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """Intern the fixed recon/fileless script set into ``self.builder``."""
        profiles = []
        for i in range(16):
            kind = ScriptKind.RECON if i % 3 else ScriptKind.FILELESS
            profiles.append(self.runner.profile(build_script(kind, token=f"recon{i}")))
        script_ids = np.array(
            [self.builder.intern_script(p.commands, p.uris) for p in profiles],
            dtype=np.int64,
        )
        exec_secs = np.array([p.exec_seconds for p in profiles])
        return len(profiles), script_ids, exec_secs

    def _bg_cmd_range(
        self, rng: RngStream, start: int, stop: int, budgets: np.ndarray
    ) -> None:
        runs = _DayRuns()
        for day in range(start, stop):
            n = int(budgets[day])
            if n <= 0:
                continue
            idx = self._day_sessions("CMD", rng, day, n)
            if runs.add(day, idx):
                _metric_inc("generator.days.CMD")
                _trace_block("bg_cmd", day, len(idx))
        if not runs:
            return
        n_profiles, script_ids, exec_secs = self._bg_cmd_profiles()
        idx, day_of = runs.arrays()
        m = len(idx)
        # Clients keep using the same tooling: script choice is stable
        # in the client index.
        prof_idx = idx % n_profiles
        duration, close, attempts = cmd_fields(rng, m, exec_secs[prof_idx])
        protocol = protocol_array(rng, m, SSH_SHARE["CMD"])
        self._population_block(
            idx, day_of, rng,
            duration=duration,
            honeypot=self._pots_for(rng, idx),
            protocol=protocol,
            n_attempts=attempts,
            login_success=np.ones(m, dtype=bool),
            script_id=script_ids[prof_idx],
            password_id=self.emitter.success_passwords(rng, m),
            username_id=np.full(m, self.emitter.root_id, dtype=np.int32),
            hash_ids=None,
            close_reason=close,
            version_id=self.emitter.client_versions(rng, m, protocol),
        )
        _metric_inc("generator.sessions.CMD", m)

    def _bg_uri_profiles(self) -> Tuple[int, np.ndarray, HashBlockCsr, np.ndarray]:
        """Intern the uncatalogued dropper script set into ``self.builder``.

        Returns ``(n_profiles, script_ids, hashes, exec_secs)`` with each
        profile's hash ids as one row of the CSR ``hashes``.
        """
        n_profiles = max(12, int(self.config.n_hashes_target * 0.03))
        profiles = [
            self.runner.profile(
                build_script(
                    ScriptKind.DROPPER,
                    token=f"bgdrop{i}",
                    dropper_host=f"203.0.113.{(i % 200) + 10}",
                )
            )
            for i in range(n_profiles)
        ]
        script_ids = np.array(
            [self.builder.intern_script(p.commands, p.uris) for p in profiles],
            dtype=np.int64,
        )
        hashes = HashBlockCsr(
            values=[self.builder.hashes.intern(h) for p in profiles for h in p.hashes],
            lengths=[len(p.hashes) for p in profiles],
        )
        exec_secs = np.array([p.exec_seconds for p in profiles])
        return len(profiles), script_ids, hashes, exec_secs

    def _bg_uri_budgets(self, budget: int) -> np.ndarray:
        # Concentrate the URI budget on days where URI-capable clients are
        # naturally active: the paper's CMD+URI activity is bursty and its
        # client IPs are short-lived (Figs 11/13).
        bucket_sizes = np.array(
            [len(self._day_buckets["CMD_URI"][d]) for d in range(self.config.n_days)],
            dtype=float,
        )
        envelope = self.envelopes["CMD_URI"] * np.where(bucket_sizes > 0, 1.0, 0.02)
        envelope = envelope / envelope.sum()
        return _daily_budgets(budget, envelope)

    def _bg_uri_range(
        self, rng: RngStream, start: int, stop: int, budgets: np.ndarray
    ) -> None:
        runs = _DayRuns()
        for day in range(start, stop):
            n = int(budgets[day])
            if n <= 0:
                continue
            idx = self._day_sessions("CMD_URI", rng, day, n)
            if runs.add(day, idx):
                _metric_inc("generator.days.CMD_URI")
                _trace_block("bg_uri", day, len(idx))
        if not runs:
            return
        n_profiles, script_ids, hashes, exec_secs = self._bg_uri_profiles()
        idx, day_of = runs.arrays()
        m = len(idx)
        prof_idx = idx % n_profiles
        duration, close, attempts = cmd_fields(rng, m, exec_secs[prof_idx])
        protocol = protocol_array(rng, m, SSH_SHARE["CMD_URI"])
        # CMD+URI attackers pick closer targets (Fig 16b).
        pots = self._pots_for(rng, idx)
        redirect_local(rng, pots, self.population.country[idx],
                       self.config.uri_locality_bias, self._locality_tables())
        self._population_block(
            idx, day_of, rng,
            duration=duration,
            honeypot=pots,
            protocol=protocol,
            n_attempts=attempts,
            login_success=np.ones(m, dtype=bool),
            script_id=script_ids[prof_idx],
            password_id=self.emitter.success_passwords(rng, m),
            username_id=np.full(m, self.emitter.root_id, dtype=np.int32),
            hash_ids=hashes.take(prof_idx),
            close_reason=close,
            version_id=self.emitter.client_versions(rng, m, protocol),
        )
        _metric_inc("generator.sessions.CMD_URI", m)

    def _locality_tables(self) -> Tuple[np.ndarray, ...]:
        """Locality pools over the whole farm (see
        :func:`~repro.workload.targets.locality_pools`), built once."""
        if self._locality_cache is None:
            self._locality_cache = self.engine.locality_pools(
                np.arange(self.n_pots, dtype=np.int32))
        return self._locality_cache

    # -- orchestration ---------------------------------------------------------------

    def _campaign_runtimes(self) -> List[CampaignRuntime]:
        return [
            CampaignRuntime(
                campaign_id=r.spec.campaign_id,
                tag=r.spec.tag.value,
                primary_hash=r.profile.primary_hash or "",
                hashes=list(r.profile.hashes),
                sessions_planned=r.total_sessions,
                n_clients=len(r.pool),
                active_days=sorted(r.schedule),
                honeypot_indices=[int(p) for p in r.pot_subset],
            )
            for r in self.realized
        ]

    def _finalize(self, store) -> HoneyfarmDataset:
        return HoneyfarmDataset(
            config=self.config,
            store=store,
            deployment=self.deployment,
            registry=self.registry,
            intel=self.intel,
            campaigns=self._campaign_runtimes(),
            envelopes=self.envelopes,
        )

    def run(self) -> HoneyfarmDataset:
        metrics = get_metrics()
        with metrics.span("generate"):
            with metrics.span("day_buckets"):
                self._build_day_buckets()
            with metrics.span("campaigns"):
                self._emit_campaigns()
            with metrics.span("singletons"):
                singleton_sessions = self._emit_singleton_writers()
            with metrics.span("background"):
                self._plan_background(singleton_sessions)
                for kind in BACKGROUND:
                    self._background_range(kind, self.rng.child(kind),
                                           0, self.config.n_days)
            with metrics.span("freeze"):
                self.emitter.flush()
                store = self.builder.build()
        return self._finalize(store)


def generate_dataset(
    config: Optional[ScenarioConfig] = None,
    workers: Optional[int] = None,
    cache=None,
) -> HoneyfarmDataset:
    """Deprecated shim over :func:`repro.api.generate`.

    ``workers=None`` runs the original single-pass generator (the
    ``serial`` backend — a distinct, equally valid trace whose draw order
    predates sharding); any integer ``workers >= 1`` selects the sharded
    pipeline, whose output is identical for every worker count.  ``cache``
    memoises the result on disk exactly as before.

    New code should call :func:`repro.generate`, which exposes the
    scheduler's backend seam (``inline`` / ``pool``) instead of a bare
    process count.
    """
    import warnings

    warnings.warn(
        "generate_dataset() is deprecated; use repro.generate(config, "
        "backend=..., workers=...) (see repro.api)",
        DeprecationWarning, stacklevel=2,
    )
    from repro.api import generate

    if workers is None:
        return generate(config, backend="serial", cache=cache)
    return generate(config, workers=max(1, int(workers)), cache=cache)
