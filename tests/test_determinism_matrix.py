"""Determinism matrix: the pinned digests hold in fresh interpreters.

The golden tests run inside the pytest process, under whatever hash
seed, environment and working directory it happens to have.  Here one
probe (this module run as a script) computes the pinned values in two
new interpreters that differ in everything the output must not depend
on:

* ``PYTHONHASHSEED`` 0 against 12345, so a ``hash(str)`` or a string
  set iterated into a draw, a column or a report line moves a digest;
* a scrubbed environment (``PATH``, ``PYTHONPATH``, ``PYTHONHASHSEED``)
  against the inherited one, so an environment read moves a digest;
  ``REPRO_*`` is dropped from both, since those variables are options;
* a working directory of its own for each run;
* pool workers started by fork against spawn, so what a worker does not
  inherit (module state built in the parent, arguments that cannot
  pickle) must not matter.

Each run computes the ``(80000, 7, 0.004)`` store on inline w=1 and pool
w=2, the ``small_dataset`` store and its report + validate digest, and
the monitor's pinned state over the demo farm and over the replayed
store.  Every value must equal its golden, unedited, in both runs.

A fault that reads the hash seed through a two-valued expression (say
``hash("no_cmd") % 2``) agrees with the goldens under any one seed with
probability 1/2, so two seeds miss it one time in four.  The cheap
hash-sensitive values (:data:`HASH_KEYS`) are therefore also computed
under each of :data:`EXTRA_HASH_SEEDS`, six seeds in all (2**-6).

Run the probe by hand from the repository root with ``PYTHONPATH=src
python -m tests.test_determinism_matrix [fork|spawn|hash]``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The store the matrix generates on both backends, as a GOLDEN key.
STORE_KEY = (80000, 7, 0.004)
#: ``tests/conftest.py:small_config`` as a GOLDEN key.
SMALL_KEY = (20000, 99, 0.008)
MONITOR_KEYS = ("demo/on_event", "replay_store_events")
#: What the ``hash`` probe computes: the values a hash-seed fault in
#: generation or analysis moves, at the least cost.
HASH_KEYS = ("store/inline-w1", "report/small_dataset")
#: Hash seeds besides 0 and 12345 that the ``hash`` probe runs under.
EXTRA_HASH_SEEDS = ("1", "42", "2023", "65535")


def probe(start_method: str) -> dict:
    """Every pinned value the matrix checks, computed in this process;
    only the :data:`HASH_KEYS` ones when ``start_method`` is ``hash``."""
    import argparse
    import contextlib
    import io
    import multiprocessing

    import repro
    from repro.__main__ import _monitor_demo
    from repro.analytics import replay_store_events
    from repro.farm.health import FarmHealthMonitor, HealthConfig
    from repro.obs import use_metrics
    from repro.workload.config import ScenarioConfig
    from tests.report_digest import report_digest
    from tests.test_farm_health import _pinned

    if start_method == "spawn":
        # The pool falls back to spawn where the platform has no fork.
        fork_or_spawn = multiprocessing.get_context

        def get_context(method=None):
            if method == "fork":
                raise ValueError("fork is unavailable in this probe")
            return fork_or_spawn(method)

        multiprocessing.get_context = get_context

    out = {}
    denominator, seed, hash_scale = STORE_KEY
    config = ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)
    backends = (("inline", 1),) if start_method == "hash" \
        else (("inline", 1), ("pool", 2))
    for backend, workers in backends:
        dataset = repro.generate(config, backend=backend, workers=workers)
        out[f"store/{backend}-w{workers}"] = dataset.store.content_digest()
    small = repro.generate(ScenarioConfig(
        scale=1 / SMALL_KEY[0], seed=SMALL_KEY[1], hash_scale=SMALL_KEY[2]))
    out["report/small_dataset"] = report_digest(small)
    if start_method == "hash":
        return out
    out["store/small_dataset"] = small.store.content_digest()

    monitor = FarmHealthMonitor()
    with use_metrics() as metrics, contextlib.redirect_stdout(io.StringIO()):
        _monitor_demo(argparse.Namespace(seed=7, pots=6, duration=3600.0),
                      monitor)
    out["monitor/demo/on_event"] = _pinned(monitor, metrics)
    with use_metrics() as metrics:
        monitor = FarmHealthMonitor(HealthConfig(interval=86400.0))
        for event in replay_store_events(dataset.store):
            monitor.feed(event)
    out["monitor/replay_store_events"] = _pinned(monitor, metrics)
    return out


def pinned() -> dict:
    """The goldens ``probe`` must reproduce, read from their own tests."""
    from tests.test_farm_health import MONITOR_GOLDEN
    from tests.test_golden_digests import GOLDEN, REPORT_GOLDEN

    out = {
        "store/inline-w1": GOLDEN[STORE_KEY],
        "store/pool-w2": GOLDEN[STORE_KEY],
        "store/small_dataset": GOLDEN[SMALL_KEY],
        "report/small_dataset": REPORT_GOLDEN["small_dataset"],
    }
    for key in MONITOR_KEYS:
        out[f"monitor/{key}"] = MONITOR_GOLDEN[key]
    # The probe's output went through JSON: tuples arrive as lists.
    return json.loads(json.dumps(out))


def _run_probe(tmp_path, hash_seed: str, scrubbed: bool, start_method: str):
    python_path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    if scrubbed:
        env = {"PATH": os.environ.get("PATH", os.defpath)}
    else:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        if env.get("PYTHONPATH"):
            python_path += os.pathsep + env["PYTHONPATH"]
    env.update(PYTHONPATH=python_path, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_determinism_matrix", start_method],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("hash_seed,scrubbed,start_method", [
    ("0", True, "fork"),
    ("12345", False, "spawn"),
], ids=["hashseed0-scrubbed-fork", "hashseed12345-inherited-spawn"])
def test_pinned_digests_hold_in_a_fresh_interpreter(
        tmp_path, hash_seed, scrubbed, start_method):
    assert _run_probe(tmp_path, hash_seed, scrubbed, start_method) == pinned()


@pytest.mark.parametrize("hash_seed", EXTRA_HASH_SEEDS)
def test_hash_sensitive_digests_hold_under_more_hash_seeds(tmp_path,
                                                           hash_seed):
    want = {key: pinned()[key] for key in HASH_KEYS}
    assert _run_probe(tmp_path, hash_seed, False, "hash") == want


if __name__ == "__main__":
    json.dump(probe(sys.argv[1] if len(sys.argv) > 1 else "fork"),
              sys.stdout, sort_keys=True)
