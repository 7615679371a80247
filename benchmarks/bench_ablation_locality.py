"""Ablation: CMD+URI locality bias.

The paper's Figure 16b/24e finds that URI-fetching intruders pick targets
near themselves.  The workload models this with an explicit locality
redirect; ablating it (bias = 0) erases the signal, showing the geographic
result is produced by attacker behaviour, not by farm layout.
"""

import pytest
from common import echo, heading

import repro
from repro.core.classify import classify_store
from repro.core.diversity import regional_diversity
from repro.workload import ScenarioConfig

ABLATION_SCALE = 1 / 8000


def _uri_local_share(dataset):
    store = dataset.store
    pot_countries = [s.country for s in dataset.deployment.sites]
    codes = classify_store(store)
    report = regional_diversity(store, pot_countries, codes == 4)
    return report.any_local_share


@pytest.fixture(scope="module")
def ablated():
    return repro.generate(ScenarioConfig(
        scale=ABLATION_SCALE, seed=556, hash_scale=0.01,
        uri_locality_bias=0.0,
    ))


@pytest.fixture(scope="module")
def baseline():
    return repro.generate(ScenarioConfig(
        scale=ABLATION_SCALE, seed=556, hash_scale=0.01,
    ))


def test_ablation_locality(baseline, ablated):
    base_local = _uri_local_share(baseline)
    ablated_local = _uri_local_share(ablated)
    heading("Ablation — CMD+URI locality bias",
            "paper Fig 16b: URI sessions show much more geographic "
            "proximity; without the modelled bias the signal vanishes")
    echo(f"  baseline same-country share (CMD+URI): {base_local:.1%}")
    echo(f"  ablated  same-country share (CMD+URI): {ablated_local:.1%}")
    assert base_local > 2 * ablated_local
