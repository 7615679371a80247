"""Ablation: decorrelated per-pot weight vectors.

DESIGN.md models honeypot attractiveness with three decorrelated vectors
(sessions / clients / hashes) because the paper finds the top pots differ
per metric (Figs 2 vs 14 vs 18).  Ablating to a single shared vector makes
the top-10 sets coincide — demonstrating the design choice is load-bearing.
"""

import numpy as np
import pytest
from common import echo, heading

import repro
from repro.core.activity import sessions_per_honeypot
from repro.core.clients import clients_per_honeypot
from repro.core.hashes import HashOccurrences, hashes_per_honeypot
from repro.workload import ScenarioConfig

ABLATION_SCALE = 1 / 8000


def _top10_overlaps(dataset):
    store = dataset.store
    sessions = sessions_per_honeypot(store)
    clients = clients_per_honeypot(store)
    hashes = hashes_per_honeypot(HashOccurrences.build(store))
    tops = [set(np.argsort(x)[::-1][:10].tolist())
            for x in (sessions, clients, hashes)]
    return (len(tops[0] & tops[1]), len(tops[0] & tops[2]))


@pytest.fixture(scope="module")
def ablated():
    return repro.generate(ScenarioConfig(
        scale=ABLATION_SCALE, seed=555, hash_scale=0.01,
        decorrelate_pot_weights=False,
    ))


@pytest.fixture(scope="module")
def baseline():
    return repro.generate(ScenarioConfig(
        scale=ABLATION_SCALE, seed=555, hash_scale=0.01,
    ))


def test_ablation_decorrelation(baseline, ablated):
    base_overlaps = _top10_overlaps(baseline)
    ablated_overlaps = _top10_overlaps(ablated)
    heading("Ablation — shared vs decorrelated pot weights",
            "paper: session-top, client-top and hash-top pots differ; a "
            "single shared weight vector cannot reproduce that")
    echo(f"  baseline  top-10 overlaps (sessions∩clients, sessions∩hashes):"
          f" {base_overlaps}")
    echo(f"  ablated   top-10 overlaps (single shared vector):"
          f" {ablated_overlaps}")
    # With one vector the metric tops collapse together.
    assert sum(ablated_overlaps) > sum(base_overlaps)
    assert ablated_overlaps[0] >= 7
