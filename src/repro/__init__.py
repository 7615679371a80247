"""Reproduction of "Fifteen Months in the Life of a Honeyfarm" (IMC 2023).

A from-scratch honeyfarm system — medium-interaction SSH/Telnet honeypots,
a 221-pot global deployment, a calibrated synthetic attacker population —
plus the full analysis suite behind the paper's tables and figures.

Entry points (the stable ``repro.api`` façade):

>>> import repro
>>> dataset = repro.generate(repro.ScenarioConfig(scale=1/4000))
>>> print(repro.report(dataset))

``generate`` accepts ``backend="inline" | "pool"`` (byte-identical; see
:mod:`repro.sched`; the default is inline for one worker, the pool for
more) and ``workers=N``; every choice writes the same trace for a config.
``repro.load(path)`` wraps an existing trace.
"""

from repro.api import GENERATE_BACKENDS, RunOptions, generate, load, report
from repro.workload import ScenarioConfig, HoneyfarmDataset

__version__ = "1.1.0"

__all__ = [
    "GENERATE_BACKENDS",
    "HoneyfarmDataset",
    "RunOptions",
    "ScenarioConfig",
    "generate",
    "load",
    "report",
    "__version__",
]
