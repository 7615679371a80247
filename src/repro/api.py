"""The stable public surface: ``repro.generate`` / ``report`` / ``load``.

Five PRs of organic growth scattered entry points across
``workload.generator.generate_dataset`` (kwarg sprawl),
``workload.shards.generate_sharded`` (hard-wired pool) and ad-hoc CLI
plumbing.  This module is the consolidation: one frozen
:class:`RunOptions` value describes *how* to run (backend, workers,
cache), and three functions do the work:

>>> import repro
>>> dataset = repro.generate(repro.ScenarioConfig(scale=1/4000))
>>> print(repro.report(dataset))

The old entry points keep working as thin shims that emit
``DeprecationWarning``.  Everything here routes through
:mod:`repro.sched`, so the backend seam (``inline`` / ``pool``) is the
stable contract — stores are byte-identical whichever backend runs the
shards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

#: ``backend`` spellings :func:`generate` accepts.  ``serial`` is the
#: original single-pass generator (a distinct, equally valid trace whose
#: draw order predates sharding); the rest are :mod:`repro.sched`
#: execution backends over the sharded pipeline.
GENERATE_BACKENDS = ("serial", "inline", "pool")

#: Environment variable supplying a default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"


@dataclass(frozen=True)
class RunOptions:
    """How to run a generation: everything except the scenario itself.

    Frozen so a value can be shared, compared and logged; derive variants
    with :func:`dataclasses.replace`.  ``workers=None`` defers to the
    ``REPRO_WORKERS`` environment variable (unset: 1 — except for the
    ``serial`` backend, which is single-pass by construction).
    ``backend=None`` picks from the resolved worker count: ``inline``
    for one worker, ``pool`` for more.
    """

    #: Execution backend: one of :data:`GENERATE_BACKENDS` (None: from
    #: the worker count).
    backend: Optional[str] = None
    #: Worker processes (None: ``$REPRO_WORKERS``, else 1).
    workers: Optional[int] = None
    #: Dataset cache directory or :class:`~repro.workload.cache.DatasetCache`.
    cache: Optional[object] = None

    def __post_init__(self) -> None:
        if self.backend is not None and \
                self.backend not in GENERATE_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(expected one of {', '.join(GENERATE_BACKENDS)})"
            )
        if self.workers is not None and int(self.workers) < 1:
            raise ValueError("workers must be >= 1")

    def resolved_workers(self) -> int:
        """The effective worker count: explicit > $REPRO_WORKERS > 1."""
        if self.workers is not None:
            return max(1, int(self.workers))
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        return max(1, int(raw)) if raw else 1

    def resolved_backend(self) -> str:
        """The effective backend: explicit, else from the worker count."""
        if self.backend is not None:
            return self.backend
        from repro.sched.backends import default_backend

        return default_backend(self.resolved_workers())


def generate(config=None, *, backend: Optional[str] = None,
             workers: Optional[int] = None, cache=None,
             options: Optional[RunOptions] = None):
    """Generate one synthetic honeyfarm trace (the stable entry point).

    Either pass ``options`` (a :class:`RunOptions`) or the individual
    keywords — ``backend``, ``workers``, ``cache``.  The output depends
    only on the config and the pipeline family (``serial`` vs sharded):
    every sharded backend and worker count yields byte-identical stores.

    Returns a :class:`~repro.workload.dataset.HoneyfarmDataset`.
    """
    from repro.workload.config import ScenarioConfig

    config = config or ScenarioConfig()
    if options is None:
        options = RunOptions(backend=backend, workers=workers, cache=cache)
    elif workers is not None or cache is not None or backend is not None:
        raise TypeError("pass either options= or individual keywords, "
                        "not both")

    from repro.obs.ledger import get_ledger
    from repro.workload.cache import dataset_fingerprint

    # The run ledger (when armed via ``use_ledger`` / ``--ledger``) pins
    # the run's logical identity here: the config fingerprint keys the
    # pipeline *family*, so workers=1 and workers=8 ledgers strip equal.
    backend = options.resolved_backend()
    workers = options.resolved_workers()
    family_workers = None if backend == "serial" else 1
    fingerprint = dataset_fingerprint(config, workers=family_workers)
    ledger = get_ledger()
    if ledger is not None:
        ledger.begin_run(
            "generate", config=config, fingerprint=fingerprint,
            backend=backend, workers=workers,
        )

    cache_obj = None
    if options.cache is not None:
        from repro.workload.cache import as_cache

        cache_obj = as_cache(options.cache)
        # Only the pipeline family keys the cache: all sharded backends
        # and worker counts produce the same bytes, so they share entries.
        cached = cache_obj.load(fingerprint)
        if cached is not None:
            if ledger is not None:
                ledger.record_store(cached.content_digest(),
                                    len(cached.store), cache_hit=True)
            return cached

    if backend == "serial":
        from repro.workload.generator import TraceGenerator

        dataset = TraceGenerator(config).run()
    else:
        from repro.sched.scheduler import generate_scheduled

        dataset = generate_scheduled(config, backend=backend,
                                     workers=workers)

    if cache_obj is not None:
        cache_obj.store(fingerprint, dataset)
    if ledger is not None:
        ledger.record_store(dataset.content_digest(), len(dataset.store))
    return dataset


def report(dataset=None, *, config=None,
           options: Optional[RunOptions] = None) -> str:
    """The paper-vs-measured summary for a dataset (generated if needed).

    Pass a dataset, or a config (plus optional :class:`RunOptions`) to
    generate one first.  Returns the rendered summary string.
    """
    if dataset is None:
        dataset = generate(config, options=options) if options is not None \
            else generate(config)
    from repro.core.report import print_summary

    return print_summary(dataset)


def load(path: PathLike, config=None):
    """Wrap an existing trace as a :class:`HoneyfarmDataset`.

    ``path`` is a dataset directory written by
    :func:`repro.workload.io.save_dataset`, or a bare ``.npz`` /
    ``.jsonl[.gz]`` trace.  A bare trace carries no deployment/intel
    sidecar: the deployment is rebuilt the way the generator would for
    ``config`` (default seed when None) and intel starts empty, so
    intel-dependent tables show zero coverage.
    """
    from repro.workload.config import ScenarioConfig
    from repro.workload.io import load_dataset

    path_obj = Path(path)
    if path_obj.is_dir():
        return load_dataset(path_obj)

    config = config or ScenarioConfig()
    if path_obj.suffix == ".npz":
        from repro.store.npz import load_npz

        store = load_npz(path_obj)
    elif path_obj.name.endswith((".jsonl", ".jsonl.gz")):
        from repro.store.io import read_jsonl

        store = read_jsonl(path_obj)
    else:
        raise ValueError(
            f"{path}: neither a dataset directory nor a "
            ".npz/.jsonl[.gz] trace"
        )

    from repro.farm.deployment import build_default_deployment
    from repro.geo.registry import GeoRegistry
    from repro.intel.database import IntelDatabase
    from repro.simulation.rng import RngStream
    from repro.workload.dataset import HoneyfarmDataset

    registry = GeoRegistry()
    deployment = build_default_deployment(
        # Intentional name reuse: loading a dataset replays the exact
        # stream the generator used, so the rebuilt deployment matches
        # the one the stored sessions were drawn against.
        RngStream(config.seed, "workload.deployment"),  # repro: lint-ok[rng-lineage]
        registry,
    )
    return HoneyfarmDataset(
        config=config,
        store=store,
        deployment=deployment,
        registry=registry,
        intel=IntelDatabase(),
    )


__all__ = [
    "GENERATE_BACKENDS",
    "RunOptions",
    "WORKERS_ENV_VAR",
    "generate",
    "load",
    "report",
]
