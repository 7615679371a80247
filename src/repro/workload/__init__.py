"""The 15-month honeyfarm scenario: configuration, temporal structure,
script execution, and the trace generator.

Two generation paths share the honeypot implementation:

* the *interactive* path (`repro.farm` + `repro.simulation.engine`) drives
  real session state machines event by event — used by tests and examples;
* the *trace* path (:mod:`repro.workload.generator`) synthesises session
  records in bulk, executing each distinct interaction script shape once
  against a real honeypot shell to obtain its commands, URIs, hashes and
  timing (each script fills in its own token), then stamping those onto
  the sampled sessions.  This is what
  makes paper-scale (shape-preserving, scaled-down) traces tractable.
"""

from repro.workload.config import ScenarioConfig
from repro.workload.dataset import HoneyfarmDataset
__all__ = ["ScenarioConfig", "HoneyfarmDataset"]
