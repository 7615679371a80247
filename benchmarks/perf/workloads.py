"""The benchmark's workloads: which job each repetition runs, at which scale.

Why each workload exists is recorded in ``BENCHMARK.json`` and the README
next to this file.  This module holds only what the runner and the child
need to run them, and imports nothing from ``repro``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Workload(NamedTuple):
    """One workload: a job kind and the fixed inputs it runs on."""

    #: ``gen`` (generate + save_dataset), ``report`` (load + full_report +
    #: validate) or ``stream`` (ingest_store + feed_many).
    kind: str
    #: Scale denominator against the paper's 402M sessions
    #: (``ScenarioConfig.from_denominator``).
    denominator: int
    #: Generation backend and worker count (``gen`` workloads only).
    backend: str = "inline"
    workers: int = 1


#: Round-robin order is the order of this mapping.
WORKLOADS: Dict[str, Workload] = {
    "gen-100k-w1": Workload("gen", 4000, "inline", 1),
    "gen-100k-pool1": Workload("gen", 4000, "pool", 1),
    "gen-10k-w1": Workload("gen", 40000, "inline", 1),
    "report-400k": Workload("report", 1000),
    "stream-10k": Workload("stream", 40000),
}

#: Backend and worker count used to build the untimed inputs of the
#: ``report`` and ``stream`` workloads (at most ``nproc`` = 2 processes).
PREP_BACKEND = ("pool", 2)
