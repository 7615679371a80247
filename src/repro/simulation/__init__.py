"""Simulation substrate: virtual time, deterministic RNG streams, event engine.

The paper analyses 15 months of wall-clock honeyfarm operation.  We replace
wall-clock time with a virtual clock (`SimClock`) anchored at the honeyfarm's
launch date and drive all stochastic choices from named, deterministic RNG
streams (`RngStream`) so that every trace, test and benchmark is reproducible
bit-for-bit from a single master seed.
"""

from repro.simulation.clock import SimClock, OBSERVATION_START, OBSERVATION_END, SECONDS_PER_DAY
from repro.simulation.rng import RngStream
from repro.simulation.engine import Event, EventQueue, SimulationEngine

__all__ = [
    "SimClock",
    "OBSERVATION_START",
    "OBSERVATION_END",
    "SECONDS_PER_DAY",
    "RngStream",
    "Event",
    "EventQueue",
    "SimulationEngine",
]
