"""Vectorised per-category field samplers.

Durations, close reasons and login-attempt counts per session category,
shaped to reproduce the paper's Figure 7 (session-duration ECDFs):

* NO_CRED / FAIL_LOG sessions are mostly closed by the client well under a
  minute; a minority of NO_CRED connections linger to the no-login timeout;
* more than 90% of NO_CMD sessions end at the three-minute idle timeout;
* CMD sessions mix client closes with a substantial idle-timeout share;
* CMD+URI sessions inherit download transfer time and can cross the
  three-minute line (the timeout resets while a download is in flight).

Fixed categorical rows, such as the login-attempt counts, are
:class:`TransitionTable` objects that precompute their CDF once at import.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.honeypot.auth import MAX_ATTEMPTS
from repro.honeypot.session import CloseReason, SessionConfig
from repro.store.store import _CLOSE_REASON_IDS
from repro.simulation.rng import RngStream, weight_cdf

CLOSE_CLIENT = _CLOSE_REASON_IDS[CloseReason.CLIENT_DISCONNECT.value]
CLOSE_AUTH_TIMEOUT = _CLOSE_REASON_IDS[CloseReason.AUTH_TIMEOUT.value]
CLOSE_IDLE_TIMEOUT = _CLOSE_REASON_IDS[CloseReason.IDLE_TIMEOUT.value]
CLOSE_TOO_MANY = _CLOSE_REASON_IDS[CloseReason.TOO_MANY_ATTEMPTS.value]
CLOSE_EXIT = _CLOSE_REASON_IDS[CloseReason.CLIENT_EXIT.value]

# The session state machine owns the timing contract; the samplers read
# its defaults so a trace row times out exactly where a live session would.
NO_LOGIN_TIMEOUT = SessionConfig().no_login_timeout
IDLE_TIMEOUT = SessionConfig().interaction_timeout


class TransitionTable:
    """A categorical state-transition row with its CDF precomputed.

    Wraps a fixed weight vector (e.g. the auth-outcome or close-reason
    distribution of a session phase) so batched draws skip the per-call
    cumsum.  ``sample`` draws the exact same values as
    ``rng.choice_indices(n, size, p=weights)`` — the CDF spelling is a
    pure precomputation, not a different distribution.
    """

    __slots__ = ("weights", "cdf", "n")

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.cdf = weight_cdf(self.weights)
        self.n = int(self.weights.size)

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        """``size`` next-state indices in ``[0, n)``."""
        return np.asarray(rng.choice_indices(self.n, size=size, cdf=self.cdf))


# Auth-phase attempt-count transition rows (P[1, 2, 3 attempts]), with
# their CDFs built once at import: batched draws through TransitionTable
# are value-identical to the old inline ``p=[...]`` spelling.
FAIL_LOG_ATTEMPTS = TransitionTable([0.24, 0.16, 0.60])
NO_CMD_ATTEMPTS = TransitionTable([0.72, 0.19, 0.09])
CMD_ATTEMPTS = TransitionTable([0.70, 0.20, 0.10])


def no_cred_fields(rng: RngStream, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(durations, close_reason_ids) for NO_CRED sessions."""
    u = rng.random_array(n)
    quick = 0.5 + 2.5 * rng.random_array(n)  # banner-grab and leave
    linger = np.clip(rng.exponential_array(9.0, n), 0.5, NO_LOGIN_TIMEOUT - 5.0)
    duration = np.where(u < 0.30, quick, np.where(u < 0.88, linger, NO_LOGIN_TIMEOUT))
    close = np.where(u < 0.88, CLOSE_CLIENT, CLOSE_AUTH_TIMEOUT).astype(np.uint8)
    return duration, close


def fail_log_fields(
    rng: RngStream, n: int, is_ssh: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(durations, close_reason_ids, n_attempts) for FAIL_LOG sessions."""
    attempts = FAIL_LOG_ATTEMPTS.sample(rng, n).astype(np.uint16) + 1
    per_try = rng.uniform_array(1.5, 6.0, n)
    duration = attempts * per_try + rng.uniform_array(0.4, 2.5, n)
    server_closed = (attempts == MAX_ATTEMPTS) & is_ssh & (rng.random_array(n) < 0.35)
    close = np.where(server_closed, CLOSE_TOO_MANY, CLOSE_CLIENT).astype(np.uint8)
    return duration, close, attempts


def no_cmd_fields(rng: RngStream, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(durations, close_reason_ids, n_attempts) for NO_CMD sessions."""
    attempts = NO_CMD_ATTEMPTS.sample(rng, n).astype(np.uint16) + 1
    login_delay = rng.uniform_array(2.0, 10.0, n)
    timed_out = rng.random_array(n) < 0.92
    duration = np.where(
        timed_out,
        login_delay + IDLE_TIMEOUT,
        login_delay + rng.uniform_array(3.0, 55.0, n),
    )
    close = np.where(timed_out, CLOSE_IDLE_TIMEOUT, CLOSE_CLIENT).astype(np.uint8)
    return duration, close, attempts


def cmd_fields(
    rng: RngStream, n: int, exec_seconds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(durations, close_reason_ids, n_attempts) for CMD / CMD+URI sessions.

    ``exec_seconds`` is each session's script execution time (think time
    plus any download transfer time from the profiled script run).
    """
    return cmd_columns(cmd_draws(rng, n), exec_seconds)


def cmd_draws(rng: RngStream, n: int) -> Tuple[np.ndarray, ...]:
    """:func:`cmd_fields`' draws, in its order; several streams' draws,
    concatenated field by field, assemble in one :func:`cmd_columns`."""
    return (CMD_ATTEMPTS.sample(rng, n), rng.lognormal_array(0.0, 0.35, n),
            rng.uniform_array(2.0, 12.0, n), rng.random_array(n))


def cmd_columns(draws: Sequence[np.ndarray], exec_seconds: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cmd_fields`' columns from its :func:`cmd_draws`."""
    attempt_index, jitter, base, u = draws
    attempts = attempt_index.astype(np.uint16) + 1
    base = base + exec_seconds * jitter
    # 62% client disconnect right after the script; 30% idle out afterwards;
    # 8% explicit exit.
    duration = np.where(u < 0.62, base, np.where(u < 0.92, base + IDLE_TIMEOUT, base))
    close = np.where(
        u < 0.62, CLOSE_CLIENT, np.where(u < 0.92, CLOSE_IDLE_TIMEOUT, CLOSE_EXIT)
    ).astype(np.uint8)
    return duration, close, attempts


def protocol_array(rng: RngStream, n: int, ssh_share: float) -> np.ndarray:
    """0 = SSH, 1 = Telnet, with the category's SSH share."""
    return (rng.random_array(n) >= ssh_share).astype(np.uint8)
