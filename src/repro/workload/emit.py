"""Session emission helpers shared by background and campaign generation.

Wraps the store builder with pre-interned credential / version / country
tables so the emission code only shuffles integer ids around.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.agents.credentials import (
    FAILED_PASSWORDS,
    FAILED_USERNAMES,
    SUCCESSFUL_PASSWORDS,
)
from repro.honeypot.protocol import COMMON_CLIENT_VERSIONS
from repro.simulation.rng import RngStream, weight_cdf
from repro.store.store import HashIdsArg, StoreBuilder


class SessionEmitter:
    """Holds the builder plus interned lookup tables for fast emission."""

    def __init__(self, builder: StoreBuilder):
        self.builder = builder

        self.success_pw_ids = np.array(
            [builder.passwords.intern(p) for p, _ in SUCCESSFUL_PASSWORDS],
            dtype=np.int32,
        )
        w = np.array([weight for _, weight in SUCCESSFUL_PASSWORDS], dtype=float)
        self.success_pw_weights = w / w.sum()

        self.fail_pw_ids = np.array(
            [builder.passwords.intern(p) for p, _ in FAILED_PASSWORDS], dtype=np.int32
        )
        w = np.array([weight for _, weight in FAILED_PASSWORDS], dtype=float)
        self.fail_pw_weights = w / w.sum()

        self.fail_user_ids = np.array(
            [builder.usernames.intern(u) for u, _ in FAILED_USERNAMES], dtype=np.int32
        )
        w = np.array([weight for _, weight in FAILED_USERNAMES], dtype=float)
        self.fail_user_weights = w / w.sum()

        self.root_id = builder.usernames.intern("root")
        self.root_pw_id = builder.passwords.intern("root")

        self.version_ids = np.array(
            [builder.versions.intern(v) for v in COMMON_CLIENT_VERSIONS],
            dtype=np.int32,
        )

        # Precomputed inverse CDFs: choice_indices(cdf=...) draws the exact
        # same values as the p= spelling while skipping the per-call cumsum.
        self._success_pw_cdf = weight_cdf(self.success_pw_weights)
        self._fail_pw_cdf = weight_cdf(self.fail_pw_weights)
        self._fail_user_cdf = weight_cdf(self.fail_user_weights)

    # -- samplers -------------------------------------------------------------

    def success_passwords(self, rng: RngStream, n: int) -> np.ndarray:
        idx = rng.choice_indices(len(self.success_pw_ids), size=n,
                                 cdf=self._success_pw_cdf)
        return self.success_pw_ids[np.asarray(idx)]

    def fail_credentials(self, rng: RngStream, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(username_ids, password_ids) for failing attempts.

        Roughly half the failures use a non-root username; the rest are
        root with the rejected password.
        """
        non_root = rng.random_array(n) < 0.55
        users = np.full(n, self.root_id, dtype=np.int32)
        idx = rng.choice_indices(len(self.fail_user_ids), size=n,
                                 cdf=self._fail_user_cdf)
        users[non_root] = self.fail_user_ids[np.asarray(idx)][non_root]
        passwords = np.full(n, self.root_pw_id, dtype=np.int32)
        idx = rng.choice_indices(len(self.fail_pw_ids), size=n,
                                 cdf=self._fail_pw_cdf)
        passwords[non_root] = self.fail_pw_ids[np.asarray(idx)][non_root]
        return users, passwords

    def client_versions(self, rng: RngStream, n: int, protocol: np.ndarray) -> np.ndarray:
        """SSH client-version ids (-1 for Telnet / silent clients)."""
        versions = np.full(n, -1, dtype=np.int32)
        is_ssh = protocol == 0
        offered = is_ssh & (rng.random_array(n) < 0.72)
        count = int(offered.sum())
        if count:
            idx = rng.choice_indices(len(self.version_ids), size=count)
            versions[offered] = self.version_ids[np.asarray(idx)]
        return versions

    # -- emission --------------------------------------------------------------

    def append_block(
        self,
        start_time: np.ndarray,
        duration: np.ndarray,
        honeypot: Sequence[int],
        protocol: np.ndarray,
        client_ip: np.ndarray,
        client_asn: np.ndarray,
        client_country: np.ndarray,
        n_attempts: np.ndarray,
        login_success: np.ndarray,
        script_id: Sequence[int],
        password_id: np.ndarray,
        username_id: np.ndarray,
        hash_ids: HashIdsArg,
        close_reason: np.ndarray,
        version_id: np.ndarray,
    ) -> None:
        # Pure pass-through: the builder adopts ndarrays as column chunks,
        # so no `.tolist()` round-trip and no per-element re-coercion.
        self.builder.append_block(
            start_time=start_time,
            duration=duration,
            honeypot_id=honeypot,
            protocol=protocol,
            client_ip=client_ip,
            client_asn=client_asn,
            client_country_id=client_country,
            n_attempts=n_attempts,
            login_success=login_success,
            script_id=script_id,
            password_id=password_id,
            username_id=username_id,
            hash_ids=hash_ids,
            close_reason_id=close_reason,
            version_id=version_id,
        )

    def flush(self) -> None:
        """No-op on the scalar path (rows reach the builder immediately)."""
