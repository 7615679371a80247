"""Tests for session classification (Figure 5 taxonomy)."""

import pytest

from repro.core.classify import (
    BEHAVIOR_OF,
    Category,
    category_shares,
    classify_store,
)
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def record_for(n_attempts, success, commands=(), uris=()):
    return SessionRecord(
        start_time=0.0, duration=1.0, honeypot_id="h", protocol="ssh",
        client_ip=1, client_asn=1, client_country="US",
        n_login_attempts=n_attempts, login_success=success,
        commands=tuple(commands), uris=tuple(uris),
    )


class TestClassifyStore:
    @pytest.fixture
    def store(self):
        builder = StoreBuilder()
        builder.append(record_for(0, False))
        builder.append(record_for(2, False))
        builder.append(record_for(1, True))
        builder.append(record_for(1, True, ["uname"]))
        builder.append(record_for(1, True, ["wget http://x/y"], ["http://x/y"]))
        return builder.build()

    def test_codes_match_record_classification(self, store):
        codes = classify_store(store)
        assert list(codes) == [0, 1, 2, 3, 4]

    def test_shares_sum_to_one(self, store):
        shares = category_shares(store)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_behavior_mapping(self):
        assert BEHAVIOR_OF[Category.NO_CRED] == "scanning"
        assert BEHAVIOR_OF[Category.FAIL_LOG] == "scouting"
        assert BEHAVIOR_OF[Category.CMD_URI] == "intrusion"

    def test_empty_store(self):
        store = StoreBuilder().build()
        assert len(classify_store(store)) == 0
        shares = category_shares(store)
        assert all(v == 0.0 for v in shares.values())


class TestOneRule:
    """The scalar and the column form of the Figure 5 rule agree."""

    def test_scalar_and_column_rules_agree_on_every_combination(self):
        import itertools

        import numpy as np

        from repro.honeypot.events import (
            CATEGORY_NAMES,
            category_codes,
            session_category,
        )

        rows = list(itertools.product((0, 2), (False, True), (0, 3),
                                      (False, True)))
        attempts, success, commands, has_uri = (np.array(col)
                                                for col in zip(*rows))
        codes = category_codes(attempts, success, commands, has_uri)
        assert codes.dtype == np.int8
        assert [CATEGORY_NAMES[c] for c in codes] == \
            [session_category(*row) for row in rows]
        # No attempt is NO_CRED, whatever else the row says.
        assert session_category(0, True, 3, True) == "NO_CRED"
        assert [CATEGORY_NAMES[c] for c in (0, 1, 2, 3, 4)] == \
            [cat.value for cat in Category]
