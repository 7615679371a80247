"""Temporal structure of the 15-month scenario.

Daily activity envelopes per session category, encoding the dynamics the
paper reports: scanning ramps up once scanners discover the fresh honeypot
addresses (~2 months), scouting ramps after ~1 month, the NO_CMD category
is dominated by a single Russian-datacenter prefix active at the start and
end of the window, FAIL_LOG shows the big September 5, 2022 spike plus the
May 2022 and November 5, 2022 events, and CMD/CMD+URI are bursty and
campaign-driven.

Envelopes are positive daily weights normalised to sum to 1; the generator
multiplies them by the category's total session budget.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.simulation.clock import OBSERVATION_DAYS, date_to_day
import datetime as _dt

from repro.simulation.rng import RngStream

#: Notable calendar events from the paper, as day indices.
DAY_SPIKE_SEP5 = date_to_day(_dt.date(2022, 9, 5))  # huge FAIL_LOG spike
DAY_SPIKE_NOV5 = date_to_day(_dt.date(2022, 11, 5))  # FAIL_LOG, few pots
MAY_2022_START = date_to_day(_dt.date(2022, 5, 1))
MAY_2022_END = date_to_day(_dt.date(2022, 5, 31))
JUNE_2022_URI_BURST = date_to_day(_dt.date(2022, 6, 10))  # CMD+URI IP spike
RU_EDGE_EARLY_END = date_to_day(_dt.date(2022, 3, 1))  # NO_CMD early window
RU_EDGE_LATE_START = date_to_day(_dt.date(2022, 12, 1))  # NO_CMD late window


def _weekly_noise(rng: RngStream, n_days: int, amplitude: float = 0.08) -> np.ndarray:
    """Mild weekly oscillation plus day-to-day noise."""
    days = np.arange(n_days)
    weekly = 1.0 + amplitude * np.sin(2 * np.pi * days / 7.0)
    noise = 1.0 + 0.10 * (rng.random_array(n_days) - 0.5)
    return weekly * noise


def _sigmoid_ramp(n_days: int, start: int, end: int, low: float, high: float) -> np.ndarray:
    """Smooth ramp from ``low`` to ``high`` between day ``start`` and ``end``."""
    days = np.arange(n_days, dtype=float)
    mid = (start + end) / 2.0
    width = max((end - start) / 6.0, 1.0)
    s = 1.0 / (1.0 + np.exp(-(days - mid) / width))
    return low + (high - low) * s


def _add_spike(env: np.ndarray, day: int, factor: float, width: int = 1) -> None:
    for d in range(day, min(day + width, len(env))):
        env[d] *= factor


def build_envelopes(rng: RngStream, n_days: int = OBSERVATION_DAYS) -> Dict[str, np.ndarray]:
    """Normalised daily activity envelopes per category."""
    envelopes: Dict[str, np.ndarray] = {}

    # NO_CRED: constant baseline scanning, discovery ramp over ~2-6 months.
    scan = _sigmoid_ramp(n_days, 45, 190, 0.45, 1.0)
    scan *= _weekly_noise(rng.child("no_cred"), n_days)
    scan *= _sigmoid_ramp(n_days, 330, 420, 1.0, 1.18)  # late-2022 increase
    envelopes["NO_CRED"] = scan

    # FAIL_LOG: ramps after ~1 month; heavy spikes.
    fail = _sigmoid_ramp(n_days, 20, 80, 0.55, 1.0)
    fail *= _weekly_noise(rng.child("fail_log"), n_days)
    for spike_day in range(MAY_2022_START, MAY_2022_END, 9):
        _add_spike(fail, spike_day, 2.6, width=2)
    _add_spike(fail, DAY_SPIKE_SEP5, 8.0, width=2)
    _add_spike(fail, DAY_SPIKE_NOV5, 4.0, width=1)
    fail *= _sigmoid_ramp(n_days, 400, 470, 1.0, 1.25)  # 2023 increase
    envelopes["FAIL_LOG"] = fail

    # NO_CMD: dominated by the Russian-datacenter prefix at both edges.
    nocmd = np.full(n_days, 0.30)
    nocmd[:RU_EDGE_EARLY_END] = 1.0
    nocmd[RU_EDGE_LATE_START:] = 1.15
    nocmd *= _weekly_noise(rng.child("no_cmd"), n_days)
    envelopes["NO_CMD"] = nocmd

    # CMD (background component; campaigns add their own structure):
    # intense until mid-2022, drop, then a rise in early 2023.
    cmd = _sigmoid_ramp(n_days, 200, 240, 1.0, 0.55)
    cmd *= _sigmoid_ramp(n_days, 390, 430, 1.0, 1.7)
    for spike_day in (95, 110, 128, 142):  # spring-2022 bursts
        _add_spike(cmd, spike_day, 2.2, width=3)
    cmd *= _weekly_noise(rng.child("cmd"), n_days)
    envelopes["CMD"] = cmd

    # CMD+URI background: low baseline with bursts.
    uri = np.full(n_days, 0.5)
    _add_spike(uri, JUNE_2022_URI_BURST, 6.0, width=5)
    for spike_day in (60, 150, 260, 350, 430):
        _add_spike(uri, spike_day, 3.0, width=3)
    uri *= _weekly_noise(rng.child("cmd_uri"), n_days)
    envelopes["CMD_URI"] = uri

    for name, env in envelopes.items():
        envelopes[name] = env / env.sum()
    return envelopes


def ru_edge_weight(day: int) -> float:
    """Share of NO_CMD sessions from the RU datacenter prefix on ``day``."""
    if day < RU_EDGE_EARLY_END or day >= RU_EDGE_LATE_START:
        return 0.78
    return 0.05


def sample_active_days(
    rng: RngStream,
    first_day: int,
    n_active: int,
    envelope: np.ndarray,
) -> np.ndarray:
    """Pick a client's active days.

    Active days start at ``first_day`` and are drawn from a window a few
    times larger than the active-day count (activity clusters in time),
    weighted by the category envelope, without replacement.
    """
    n_days = len(envelope)
    if first_day >= n_days:
        first_day = n_days - 1
    if n_active <= 1:
        return np.array([first_day], dtype=np.int32)
    window_end = min(n_days, first_day + max(4 * n_active, 14))
    window = np.arange(first_day, window_end)
    if len(window) <= n_active:
        return window.astype(np.int32)
    weights = envelope[first_day:window_end].astype(float)
    total = weights.sum()
    if total <= 0:
        weights = np.ones(len(window))
        total = weights.sum()
    weights = weights / total
    picked = rng.choice_indices(len(window), size=n_active, p=weights, replace=False)
    days = window[np.sort(picked)].astype(np.int32)
    # The client's first day is always active.  Distinct picks keep the
    # days strictly increasing, so this needs no re-sort or dedup.
    days[0] = first_day
    return days


def honeypot_weight_vectors(
    rng: RngStream, n_honeypots: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(session, client, hash) attractiveness weights per honeypot.

    Three deliberately decorrelated weight vectors, because the paper finds
    that the honeypots with the most sessions are *not* those with the most
    client IPs, nor those collecting the most file hashes (Figs 2, 14, 18).

    Each vector is a lognormal tail plus a "ladder" of 11 boosted pots
    sitting just above the tail maximum; the ladder is then rescaled so the
    top-10 pots capture the requested share (the paper's 14% of sessions),
    which also puts the knee of the sorted curve at rank ~11 and yields a
    >30x max/min spread.
    """
    ladder_shape = np.array(
        [2.6, 2.3, 2.1, 1.95, 1.82, 1.72, 1.63, 1.55, 1.48, 1.42, 1.05]
    )

    def one(stream: RngStream, top10_share: float, sigma: float) -> np.ndarray:
        tail = np.exp(sigma * stream.normal_array(n_honeypots))
        weights = tail.copy()
        if n_honeypots <= len(ladder_shape):
            return weights / weights.sum()
        order = stream.shuffled(list(range(n_honeypots)))
        top = order[: len(ladder_shape)]
        anchor = float(np.percentile(tail, 95))
        ladder = anchor * ladder_shape
        # Scale the top-10 rungs to land on the requested weight share. The
        # realized session share ends a few points higher because in-target
        # selection renormalises weights within small target sets.
        rest = tail.sum() - tail[top].sum() + ladder[10]
        s10 = ladder[:10].sum()
        k = top10_share * rest / (s10 * (1.0 - top10_share))
        for rank, pot in enumerate(top):
            weights[pot] = ladder[rank] * (k if rank < 10 else 1.0)
        return weights / weights.sum()

    sessions = one(rng.child("sessions"), 0.12, 0.60)
    clients = one(rng.child("clients"), 0.06, 0.40)
    hashes = one(rng.child("hashes"), 0.05, 0.60)
    return sessions, clients, hashes
