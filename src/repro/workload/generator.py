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
    ClientPopulation,
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
from repro.store.store import StoreBuilder
from repro.workload.blocks import make_emitter
from repro.workload.campaign_engine import CampaignEngine, RealizedCampaign, URI_KINDS
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
from repro.workload.targets import TargetIndex, TargetSet
from repro.workload.temporal import (
    build_envelopes,
    honeypot_weight_vectors,
    ru_edge_weight,
    sample_active_days,
)

SECONDS_PER_DAY = 86_400

_ROLE_CATEGORY = [
    (ClientRole.SCAN, "NO_CRED"),
    (ClientRole.SCOUT, "FAIL_LOG"),
    (ClientRole.NOCMD, "NO_CMD"),
    (ClientRole.CMD, "CMD"),
    (ClientRole.CMDURI, "CMD_URI"),
]


def _rescale_schedule(schedule: Dict[int, int], factor: float) -> Dict[int, int]:
    """Scale a campaign's per-day session counts by ``factor``.

    Days that round to zero are dropped, but the campaign keeps at least
    its start day with one session, so realised campaigns never vanish.
    """
    if factor >= 1.0:
        return schedule
    new_total = max(1, int(round(sum(schedule.values()) * factor)))
    days = sorted(schedule)
    if new_total <= len(days):
        return {day: 1 for day in days[:new_total]}
    scaled = {day: int(schedule[day] * factor) for day in days}
    out = {day: max(1, count) for day, count in scaled.items()}
    # Trim rounding surplus from the largest days.
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

        self.emitter = make_emitter(self.builder, self.rng.child("emitter"))
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
            self.rng.child("targets"), client_w, session_w, self.pot_countries
        )
        self.targets: List[TargetSet] = self.target_index.build_for(
            self.population.breadth
        )

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
        self._campaign_sessions = {"CMD": 0, "CMD_URI": 0}
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

    def _expand_day(
        self, rng: RngStream, clients: np.ndarray, n_sessions: int
    ) -> np.ndarray:
        """Distribute a day's sessions over its active clients by rate."""
        rates = self.population.rate[clients].astype(np.float64)
        counts = rng.multinomial(n_sessions, rates)
        nz = np.nonzero(counts)[0]
        return np.repeat(clients[nz], counts[nz])

    def _pots_for(self, rng: RngStream, session_clients: np.ndarray) -> np.ndarray:
        m = len(session_clients)
        u = rng.random_array(m)
        if m == 0:
            return np.zeros(0, dtype=np.int32)
        # ``_expand_day`` emits contiguous runs per client (np.repeat), so
        # one vectorised searchsorted per run covers the whole day; the
        # draws are the exact same uniforms the scalar path consumed.
        out = np.empty(m, dtype=np.int32)
        targets = self.targets
        boundaries = np.flatnonzero(np.diff(session_clients)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [m]))
        for s, e in zip(starts, ends):
            out[s:e] = targets[int(session_clients[s])].choose_many(u[s:e])
        return out

    def _start_times(self, rng: RngStream, day: int, n: int) -> np.ndarray:
        return day * SECONDS_PER_DAY + rng.uniform_array(0, SECONDS_PER_DAY, n)

    # -- category emitters ---------------------------------------------------------

    def _emit_no_cred(self) -> None:
        budget = self.config.sessions_for("NO_CRED")
        budgets = _daily_budgets(budget, self.envelopes["NO_CRED"])
        rng = self.rng.child("no_cred")
        for day in range(self.config.n_days):
            n = int(budgets[day])
            if n <= 0:
                continue
            self._no_cred_day(rng, day, n)

    def _no_cred_day(self, rng: RngStream, day: int, n: int) -> None:
        pop = self.population
        clients = self._active_clients("NO_CRED", day, rng)
        if len(clients) == 0:
            return
        idx = self._expand_day(rng, clients, n)
        m = len(idx)
        duration, close = no_cred_fields(rng, m)
        protocol = protocol_array(rng, m, SSH_SHARE["NO_CRED"])
        neg = np.full(m, -1, dtype=np.int32)
        self.emitter.append_block(
            start_time=self._start_times(rng, day, m),
            duration=duration,
            honeypot=self._pots_for(rng, idx),
            protocol=protocol,
            client_ip=pop.ip[idx],
            client_asn=pop.asn[idx],
            client_country=pop.country[idx].astype(np.int32),
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
        _metric_inc("generator.days.NO_CRED")
        _trace_block("no_cred", day, m)

    def _fail_log_setup(
        self, rng: RngStream
    ) -> Tuple[set, np.ndarray, np.ndarray]:
        """Fixed spike configuration: days, source clients, target pots.

        The big FAIL_LOG spikes (2022-09-05, 2022-11-05) are driven by a
        handful of source IPs hammering a small pot subset — the paper
        notes spikes are "often due to activity seen by only a small
        subset of the honeypots" (Fig 9).
        """
        from repro.workload.temporal import DAY_SPIKE_NOV5, DAY_SPIKE_SEP5
        spike_days = {DAY_SPIKE_SEP5, DAY_SPIKE_SEP5 + 1, DAY_SPIKE_NOV5}
        scout_clients = self.population.with_role(ClientRole.SCOUT)
        spike_rng = rng.child("spikes")
        if len(scout_clients):
            picked = spike_rng.choice_indices(
                len(scout_clients), size=min(3, len(scout_clients)),
                replace=False)
            spike_client_idx = scout_clients[np.asarray(picked)]
        else:
            spike_client_idx = np.zeros(0, dtype=np.int64)
        spike_pots = np.argsort(self.session_weights)[::-1][:3].astype(np.int64)
        return spike_days, spike_client_idx, spike_pots

    def _emit_fail_log(self) -> None:
        budget = self.config.sessions_for("FAIL_LOG")
        budgets = _daily_budgets(budget, self.envelopes["FAIL_LOG"])
        # Explicit sequential handoff: this stream is passed to the
        # sampler/emit helpers, which draw on its behalf in one fixed
        # order inside one task — not shared cross-module state.
        rng = self.rng.child("fail_log")  # repro: lint-ok[rng-lineage]
        baseline = float(np.median(budgets[budgets > 0])) if (budgets > 0).any() else 0.0
        spike = self._fail_log_setup(rng)

        for day in range(self.config.n_days):
            n = int(budgets[day])
            if n <= 0:
                continue
            self._fail_log_day(rng, day, n, baseline, spike)

    def _fail_log_day(
        self,
        rng: RngStream,
        day: int,
        n: int,
        baseline: float,
        spike: Tuple[set, np.ndarray, np.ndarray],
    ) -> None:
        spike_days, spike_client_idx, spike_pots = spike
        pop = self.population
        if day in spike_days and len(spike_client_idx) and n > baseline:
            surplus = int(n - baseline)
            self._emit_fail_log_spike(rng, day, surplus,
                                      spike_client_idx, spike_pots)
            n -= surplus
            if n <= 0:
                return
        clients = self._active_clients("FAIL_LOG", day, rng)
        if len(clients) == 0:
            return
        idx = self._expand_day(rng, clients, n)
        m = len(idx)
        protocol = protocol_array(rng, m, SSH_SHARE["FAIL_LOG"])
        duration, close, attempts = fail_log_fields(rng, m, protocol == 0)
        users, passwords = self.emitter.fail_credentials(rng, m)
        self.emitter.append_block(
            start_time=self._start_times(rng, day, m),
            duration=duration,
            honeypot=self._pots_for(rng, idx),
            protocol=protocol,
            client_ip=pop.ip[idx],
            client_asn=pop.asn[idx],
            client_country=pop.country[idx].astype(np.int32),
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
        _metric_inc("generator.days.FAIL_LOG")
        _trace_block("fail_log", day, m)

    def _emit_fail_log_spike(
        self,
        rng: RngStream,
        day: int,
        n: int,
        spike_clients: np.ndarray,
        spike_pots: np.ndarray,
    ) -> None:
        """Emit a FAIL_LOG burst from few clients against few pots."""
        pop = self.population
        counts = rng.multinomial(n, np.ones(len(spike_clients)))
        nz = np.nonzero(counts)[0]
        idx = np.repeat(spike_clients[nz], counts[nz])
        m = len(idx)
        if m == 0:
            return
        protocol = protocol_array(rng, m, SSH_SHARE["FAIL_LOG"])
        duration, close, attempts = fail_log_fields(rng, m, protocol == 0)
        users, passwords = self.emitter.fail_credentials(rng, m)
        pot_pick = rng.choice_indices(len(spike_pots), size=m)
        self.emitter.append_block(
            start_time=self._start_times(rng, day, m),
            duration=duration,
            honeypot=spike_pots[np.asarray(pot_pick)],
            protocol=protocol,
            client_ip=pop.ip[idx],
            client_asn=pop.asn[idx],
            client_country=pop.country[idx].astype(np.int32),
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
        _metric_inc("generator.spike_sessions.FAIL_LOG", m)
        _trace_block("fail_log", day, m, spike=True)

    def _no_cmd_setup(self, rng: RngStream) -> Tuple[_RuPrefixClients, np.ndarray]:
        ru_count = max(8, int(48 * self.config.ip_scale * 10))
        ru_index = self.population.country_codes.index("RU")
        ru = _RuPrefixClients(self.registry, rng.child("ru"), ru_count, ru_index)
        # The RU prefix targets a broad, fixed slice of the farm.
        ru_pots = np.arange(self.n_pots, dtype=np.int32)
        return ru, ru_pots

    def _emit_no_cmd(self) -> None:
        budget = self.config.sessions_for("NO_CMD")
        budgets = _daily_budgets(budget, self.envelopes["NO_CMD"])
        # Explicit sequential handoff, as in _emit_fail_log above.
        rng = self.rng.child("no_cmd")  # repro: lint-ok[rng-lineage]
        ru, ru_pots = self._no_cmd_setup(rng)

        for day in range(self.config.n_days):
            n = int(budgets[day])
            if n <= 0:
                continue
            self._no_cmd_day(rng, day, n, ru, ru_pots)

    def _no_cmd_day(
        self,
        rng: RngStream,
        day: int,
        n: int,
        ru: _RuPrefixClients,
        ru_pots: np.ndarray,
    ) -> None:
        pop = self.population
        n_ru = int(round(n * ru_edge_weight(day)))
        n_regular = n - n_ru

        if n_ru > 0:
            counts = rng.multinomial(n_ru, ru.rates)
            nz = np.nonzero(counts)[0]
            ips = np.repeat(ru.ips[nz], counts[nz])
            m = len(ips)
            duration, close, attempts = no_cmd_fields(rng, m)
            protocol = protocol_array(rng, m, SSH_SHARE["NO_CMD"])
            pot_pick = rng.choice_indices(len(ru_pots), size=m)
            self.emitter.append_block(
                start_time=self._start_times(rng, day, m),
                duration=duration,
                honeypot=ru_pots[np.asarray(pot_pick)],
                protocol=protocol,
                client_ip=ips,
                client_asn=np.full(m, ru.asn, dtype=np.int32),
                client_country=np.full(m, ru.country_index, dtype=np.int32),
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
            _trace_block("no_cmd", day, m, ru=True)

        if n_regular > 0:
            clients = self._active_clients("NO_CMD", day, rng)
            if len(clients) == 0:
                return
            idx = self._expand_day(rng, clients, n_regular)
            m = len(idx)
            duration, close, attempts = no_cmd_fields(rng, m)
            protocol = protocol_array(rng, m, SSH_SHARE["NO_CMD"])
            self.emitter.append_block(
                start_time=self._start_times(rng, day, m),
                duration=duration,
                honeypot=self._pots_for(rng, idx),
                protocol=protocol,
                client_ip=pop.ip[idx],
                client_asn=pop.asn[idx],
                client_country=pop.country[idx].astype(np.int32),
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
            _trace_block("no_cmd", day, m)
        _metric_inc("generator.days.NO_CMD")

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
            emitted = self.engine.emit(r)
            self._campaign_sessions[r.category] += emitted

    def _emit_singleton_writers(self) -> None:
        """Background intruders whose one-off files give singleton hashes.

        Each writer runs a personal FILE_TOKEN script against a single
        honeypot — these are the >60% of all hashes the paper finds at
        exactly one honeypot.
        """
        rng = self.rng.child("singletons")
        pop = self.population
        cmd_clients = pop.with_role(ClientRole.CMD)
        n_writers = min(self.config.n_singleton_hashes, len(cmd_clients))
        if n_writers == 0:
            return
        picked = rng.choice_indices(len(cmd_clients), size=n_writers, replace=False)
        writers = cmd_clients[np.asarray(picked)]
        emitted = 0
        for w in writers:
            w = int(w)
            token = f"bg-{w}-{int(pop.ip[w])}"
            profile = self.runner.profile(build_script(ScriptKind.FILE_TOKEN, token=token))
            script_id = self.builder.intern_script(profile.commands, profile.uris)
            hash_ids = tuple(self.builder.hashes.intern(h) for h in profile.hashes)
            # A singleton file surfaces wherever its writer happened to
            # intrude; spreading them uniformly over the writer's targets
            # keeps the top pots' unique-hash coverage small (the paper's
            # strongest diversity argument: the best pot sees <5%).
            target_pots = self.targets[w].pots
            pot = int(target_pots[rng.randint(0, len(target_pots))])
            n_sessions = 1 + rng.randint(0, 3)
            day0 = int(pop.first_day[w])
            for s in range(n_sessions):
                day = min(day0 + rng.randint(0, max(1, int(pop.n_days[w]))),
                          self.config.n_days - 1)
                start = day * SECONDS_PER_DAY + rng.uniform(0, SECONDS_PER_DAY)
                duration, close, attempts = cmd_fields(
                    rng, 1, np.array([profile.exec_seconds])
                )
                protocol = protocol_array(rng, 1, SSH_SHARE["CMD"])
                self.emitter.append_row(
                    start_time=float(start),
                    duration=float(duration[0]),
                    honeypot_id=pot,
                    protocol=int(protocol[0]),
                    client_ip=int(pop.ip[w]),
                    client_asn=int(pop.asn[w]),
                    client_country_id=int(pop.country[w]),
                    n_attempts=int(attempts[0]),
                    login_success=True,
                    script_id=script_id,
                    password_id=int(self.emitter.success_passwords(rng, 1)[0]),
                    username_id=self.emitter.root_id,
                    hash_ids=hash_ids,
                    close_reason_id=int(close[0]),
                    version_id=-1,
                )
                emitted += 1
        self._campaign_sessions["CMD"] += emitted  # counts against CMD budget
        _metric_inc("generator.sessions.singletons", emitted)
        _trace.emit("generator.block", trace_id="singletons",
                    category="singletons", sessions=emitted)

    # -- singleton writers, sharded path --------------------------------------
    #
    # The sharded pipeline gives every writer its own named rng stream so a
    # writer's sessions are identical no matter which worker emits them.
    # Selection reuses the first draw of the serial path's stream, so both
    # paths pick the same writers.

    def _singleton_writers(self) -> np.ndarray:
        """Deterministic singleton-writer selection (population indices)."""
        rng = self.rng.child("singletons")
        cmd_clients = self.population.with_role(ClientRole.CMD)
        n_writers = min(self.config.n_singleton_hashes, len(cmd_clients))
        if n_writers == 0:
            return np.zeros(0, dtype=np.int64)
        picked = rng.choice_indices(len(cmd_clients), size=n_writers, replace=False)
        return cmd_clients[np.asarray(picked)]

    def _singleton_writer_rng(self, w: int) -> RngStream:
        # Composed-name construction: identical stream (and draws) to
        # .child("singletons").child(f"w{w}") at half the derivations.
        return RngStream(self.rng.master_seed, f"{self.rng.name}.singletons.w{w}")

    def _singleton_writer_plan(self, wrng: RngStream, w: int) -> Tuple[int, int]:
        """(target pot, session count) for one writer — first draws on its stream."""
        target_pots = self.targets[w].pots
        pot = int(target_pots[wrng.randint(0, len(target_pots))])
        n_sessions = 1 + wrng.randint(0, 3)
        return pot, n_sessions

    def _singleton_session_total(self, writers: np.ndarray) -> int:
        """Total sessions the writers will emit (re-derivable in any worker)."""
        total = 0
        for w in writers:
            w = int(w)
            _pot, n_sessions = self._singleton_writer_plan(
                self._singleton_writer_rng(w), w
            )
            total += n_sessions
        return total

    def _singleton_writer_emit(self, w: int) -> None:
        """Emit one writer's sessions into ``self.builder`` (sharded path)."""
        pop = self.population
        w = int(w)
        wrng = self._singleton_writer_rng(w)
        pot, n_sessions = self._singleton_writer_plan(wrng, w)
        token = f"bg-{w}-{int(pop.ip[w])}"
        profile = self.runner.profile(build_script(ScriptKind.FILE_TOKEN, token=token))
        script_id = self.builder.intern_script(profile.commands, profile.uris)
        hash_ids = tuple(self.builder.hashes.intern(h) for h in profile.hashes)
        day0 = int(pop.first_day[w])
        for _s in range(n_sessions):
            day = min(day0 + wrng.randint(0, max(1, int(pop.n_days[w]))),
                      self.config.n_days - 1)
            start = day * SECONDS_PER_DAY + wrng.uniform(0, SECONDS_PER_DAY)
            duration, close, attempts = cmd_fields(
                wrng, 1, np.array([profile.exec_seconds])
            )
            protocol = protocol_array(wrng, 1, SSH_SHARE["CMD"])
            self.emitter.append_row(
                start_time=float(start),
                duration=float(duration[0]),
                honeypot_id=pot,
                protocol=int(protocol[0]),
                client_ip=int(pop.ip[w]),
                client_asn=int(pop.asn[w]),
                client_country_id=int(pop.country[w]),
                n_attempts=int(attempts[0]),
                login_success=True,
                script_id=script_id,
                password_id=int(self.emitter.success_passwords(wrng, 1)[0]),
                username_id=self.emitter.root_id,
                hash_ids=hash_ids,
                close_reason_id=int(close[0]),
                version_id=-1,
            )
        _metric_inc("generator.sessions.singletons", n_sessions)
        _trace.emit("generator.block", trace_id=f"singletons.w{w}",
                    sim_time=day0 * 86400.0, category="singletons",
                    writer=w, sessions=n_sessions)

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

    def _emit_background_cmd(self) -> None:
        """Recon-only CMD sessions (no file writes, no URIs)."""
        budget = self.config.sessions_for("CMD") - self._campaign_sessions["CMD"]
        if budget <= 0:
            return
        rng = self.rng.child("bg_cmd")
        pack = self._bg_cmd_profiles()

        budgets = _daily_budgets(budget, self.envelopes["CMD"])
        for day in range(self.config.n_days):
            n = int(budgets[day])
            if n <= 0:
                continue
            self._bg_cmd_day(rng, day, n, pack)

    def _bg_cmd_day(
        self,
        rng: RngStream,
        day: int,
        n: int,
        pack: Tuple[int, np.ndarray, np.ndarray],
    ) -> None:
        n_profiles, script_ids, exec_secs = pack
        pop = self.population
        clients = self._active_clients("CMD", day, rng)
        if len(clients) == 0:
            return
        idx = self._expand_day(rng, clients, n)
        m = len(idx)
        # Clients keep using the same tooling: script choice is stable
        # in the client index.
        prof_idx = idx % n_profiles
        duration, close, attempts = cmd_fields(rng, m, exec_secs[prof_idx])
        protocol = protocol_array(rng, m, SSH_SHARE["CMD"])
        self.emitter.append_block(
            start_time=self._start_times(rng, day, m),
            duration=duration,
            honeypot=self._pots_for(rng, idx),
            protocol=protocol,
            client_ip=pop.ip[idx],
            client_asn=pop.asn[idx],
            client_country=pop.country[idx].astype(np.int32),
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
        _metric_inc("generator.days.CMD")
        _trace_block("bg_cmd", day, m)

    def _bg_uri_profiles(self) -> Tuple[int, np.ndarray, List[Tuple[int, ...]], np.ndarray]:
        """Intern the uncatalogued dropper script set into ``self.builder``."""
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
        hash_tuples = [
            tuple(self.builder.hashes.intern(h) for h in p.hashes) for p in profiles
        ]
        exec_secs = np.array([p.exec_seconds for p in profiles])
        return len(profiles), script_ids, hash_tuples, exec_secs

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

    def _emit_background_uri(self) -> None:
        """Uncatalogued dropper sessions filling the CMD+URI budget."""
        budget = self.config.sessions_for("CMD_URI") - self._campaign_sessions["CMD_URI"]
        if budget <= 0:
            return
        rng = self.rng.child("bg_uri")
        pack = self._bg_uri_profiles()

        budgets = self._bg_uri_budgets(budget)
        for day in range(self.config.n_days):
            n = int(budgets[day])
            if n <= 0:
                continue
            self._bg_uri_day(rng, day, n, pack)

    def _bg_uri_day(
        self,
        rng: RngStream,
        day: int,
        n: int,
        pack: Tuple[int, np.ndarray, List[Tuple[int, ...]], np.ndarray],
    ) -> None:
        n_profiles, script_ids, hash_tuples, exec_secs = pack
        pop = self.population
        clients = self._active_clients("CMD_URI", day, rng)
        if len(clients) == 0:
            return
        idx = self._expand_day(rng, clients, n)
        m = len(idx)
        prof_idx = idx % n_profiles
        duration, close, attempts = cmd_fields(rng, m, exec_secs[prof_idx])
        protocol = protocol_array(rng, m, SSH_SHARE["CMD_URI"])
        pots = self._local_biased_pots(rng, idx)
        self.emitter.append_block(
            start_time=self._start_times(rng, day, m),
            duration=duration,
            honeypot=pots,
            protocol=protocol,
            client_ip=pop.ip[idx],
            client_asn=pop.asn[idx],
            client_country=pop.country[idx].astype(np.int32),
            n_attempts=attempts,
            login_success=np.ones(m, dtype=bool),
            script_id=script_ids[prof_idx],
            password_id=self.emitter.success_passwords(rng, m),
            username_id=np.full(m, self.emitter.root_id, dtype=np.int32),
            hash_ids=[hash_tuples[int(i)] for i in prof_idx],
            close_reason=close,
            version_id=self.emitter.client_versions(rng, m, protocol),
        )
        _metric_inc("generator.sessions.CMD_URI", m)
        _metric_inc("generator.days.CMD_URI")
        _trace_block("bg_uri", day, m)

    def _locality_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
        """CSR pot pools per population country index.

        ``(flat, c_off, c_len, k_off, k_len)``: country ``i``'s same-country
        pots are ``flat[c_off[i]:c_off[i]+c_len[i]]``, its same-continent
        pots ``flat[k_off[i]:k_off[i]+k_len[i]]``.  Pure function of the
        deployment and population — consumes no RNG.
        """
        cache = self._locality_cache
        if cache is None:
            from repro.geo.continents import continent_of

            codes = self.population.country_codes
            n = len(codes)
            flat_parts: List[np.ndarray] = []
            c_off = np.zeros(n, np.int64)
            c_len = np.zeros(n, np.int64)
            k_off = np.zeros(n, np.int64)
            k_len = np.zeros(n, np.int64)
            pos = 0
            for i, cc in enumerate(codes):
                pool = self.target_index.pots_in_country(cc)
                c_off[i] = pos
                c_len[i] = len(pool)
                if len(pool):
                    flat_parts.append(pool)
                    pos += len(pool)
            for i, cc in enumerate(codes):
                pool = self.target_index.pots_on_continent(continent_of(cc))
                k_off[i] = pos
                k_len[i] = len(pool)
                if len(pool):
                    flat_parts.append(pool)
                    pos += len(pool)
            flat = (np.concatenate(flat_parts) if flat_parts
                    else np.zeros(0, np.int32))
            cache = self._locality_cache = (flat, c_off, c_len, k_off, k_len)
        return cache

    def _local_biased_pots(self, rng: RngStream, idx: np.ndarray) -> np.ndarray:
        """Target choice with the CMD+URI locality bias (Fig 16b).

        URI attackers pick closer targets: a share of their sessions is
        redirected to a honeypot in the client's own country when the farm
        has one, else to one on its continent.  One batched varying-bound
        ``randint_array`` covers every redirected session; the draws are
        bit-identical to the scalar per-session loop it replaced
        (``RngStream.randint_array``).
        """
        pots = self._pots_for(rng, idx)
        bias = self.config.uri_locality_bias
        if bias <= 0:
            return pots
        u = rng.random_array(len(idx))
        hit = np.flatnonzero(u < bias)
        if hit.size == 0:
            return pots
        flat, c_off, c_len, k_off, k_len = self._locality_tables()
        ci = self.population.country[idx[hit]].astype(np.int64)
        use_country = (u[hit] < 0.4 * bias) & (c_len[ci] > 0)
        bounds = np.where(use_country, c_len[ci], k_len[ci])
        offs = np.where(use_country, c_off[ci], k_off[ci])
        drawable = bounds > 0
        if drawable.any():
            picks = rng.randint_array(0, bounds[drawable])
            pots[hit[drawable]] = flat[offs[drawable] + picks]
        return pots

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
                self._emit_singleton_writers()
            with metrics.span("background"):
                self._emit_background_cmd()
                self._emit_background_uri()
                self._emit_no_cred()
                self._emit_fail_log()
                self._emit_no_cmd()
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
