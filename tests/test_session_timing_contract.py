"""The trace rows keep the honeypot session state machine's timing contract.

The samplers stamp durations and close reasons without running the state
machine, so this pins, on the golden stores, that every row closes the
way a live :class:`~repro.honeypot.session.HoneypotSession` would under
its default :class:`~repro.honeypot.session.SessionConfig` and
:data:`~repro.honeypot.auth.MAX_ATTEMPTS`.  The stores are two of the
configs ``tests/test_golden_digests.py`` pins, so these checks read
the exact bytes it guards:

* ``auth-timeout``: exactly ``no_login_timeout`` long, no attempt, no login;
* ``idle-timeout``: logged in, at least ``interaction_timeout`` long;
* ``too-many-attempts``: exactly ``max_attempts`` attempts, no login.
"""

import numpy as np
import pytest

import repro
from repro.honeypot.auth import MAX_ATTEMPTS
from repro.honeypot.session import CloseReason, SessionConfig
from repro.store.store import _CLOSE_REASON_IDS
from repro.workload.config import ScenarioConfig

CONTRACT = SessionConfig()


@pytest.fixture(scope="module", params=[(40000, 2023, 0.002), (80000, 7, 0.004)],
                ids=lambda k: "d%d-s%d" % k[:2])
def store(request):
    denominator, seed, hash_scale = request.param
    config = ScenarioConfig.from_denominator(
        denominator, seed=seed, hash_scale=hash_scale)
    return repro.generate(config, backend="inline", workers=1).store


def _rows(store, reason: CloseReason) -> np.ndarray:
    rows = store.close_reason == _CLOSE_REASON_IDS[reason.value]
    assert rows.any(), f"no {reason.value} rows: the check would be vacuous"
    return rows


def test_auth_timeout_rows_last_exactly_the_no_login_timeout(store):
    rows = _rows(store, CloseReason.AUTH_TIMEOUT)
    assert (store.duration[rows] == CONTRACT.no_login_timeout).all()
    assert (store.n_attempts[rows] == 0).all()
    assert not store.login_success[rows].any()


def test_idle_timeout_rows_are_logged_in_and_outlast_the_idle_timeout(store):
    rows = _rows(store, CloseReason.IDLE_TIMEOUT)
    assert store.login_success[rows].all()
    assert (store.duration[rows] >= CONTRACT.interaction_timeout).all()


def test_too_many_attempts_rows_use_every_attempt_and_fail(store):
    rows = _rows(store, CloseReason.TOO_MANY_ATTEMPTS)
    assert CONTRACT.auth_policy.max_attempts == MAX_ATTEMPTS
    assert (store.n_attempts[rows] == MAX_ATTEMPTS).all()
    assert not store.login_success[rows].any()
