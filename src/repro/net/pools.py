"""Address-pool allocation for placing simulated hosts in IPv4 space.

The synthetic geo database (:mod:`repro.geo`) carves the documentation-safe
ranges of IPv4 space into per-country, per-AS prefixes.  An
:class:`AddressPool` hands out addresses from those prefixes
deterministically.
"""

from __future__ import annotations

from typing import List

from repro.net.ip import IPv4Prefix
from repro.simulation.rng import RngStream


class AddressPool:
    """Hands out distinct addresses from a set of prefixes.

    Supports both sequential allocation (used for honeypot placement, so the
    farm layout is stable) and random sampling without replacement (used for
    attacker populations, so client addresses look scattered inside their
    origin networks).
    """

    def __init__(self, prefixes: List[IPv4Prefix]):
        if not prefixes:
            raise ValueError("address pool needs at least one prefix")
        self.prefixes = list(prefixes)
        self._sizes = [p.num_addresses for p in self.prefixes]
        self._total = sum(self._sizes)
        self._next_offset = 0
        self._used: set = set()

    @property
    def used_count(self) -> int:
        return len(self._used) + self._next_offset

    def _address_at(self, global_offset: int) -> int:
        for prefix, size in zip(self.prefixes, self._sizes):
            if global_offset < size:
                return prefix.address_at(global_offset)
            global_offset -= size
        raise IndexError("offset beyond pool capacity")

    def allocate_sequential(self) -> int:
        """Allocate the next unused address in prefix order."""
        while self._next_offset < self._total:
            addr = self._address_at(self._next_offset)
            self._next_offset += 1
            if addr not in self._used:
                return addr
        raise RuntimeError("address pool exhausted")

    def sample(self, rng: RngStream) -> int:
        """Sample a random unused address from the pool."""
        remaining = self._total - self.used_count
        if remaining <= 0:
            raise RuntimeError("address pool exhausted")
        # Rejection-sample; pools are never loaded anywhere near capacity.
        for _ in range(64):
            offset = rng.randint(0, self._total)
            addr = self._address_at(offset)
            if addr not in self._used:
                self._used.add(addr)
                return addr
        # Dense fallback: walk for a free slot.
        for offset in range(self._total):
            addr = self._address_at(offset)
            if addr not in self._used:
                self._used.add(addr)
                return addr
        raise RuntimeError("address pool exhausted")

