"""Tests for AS-level analyses."""

from repro.core.asns import as_counts_by_category
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def tiny_store():
    builder = StoreBuilder()
    rows = [
        # AS 100: two scanning IPs
        dict(client_ip=1, client_asn=100, n_login_attempts=0, login_success=False),
        dict(client_ip=2, client_asn=100, n_login_attempts=0, login_success=False),
        dict(client_ip=1, client_asn=100, n_login_attempts=0, login_success=False),
        # AS 200: one intruder with a hash
        dict(client_ip=3, client_asn=200, n_login_attempts=1,
             login_success=True, commands=("x",), file_hashes=("c" * 64,)),
    ]
    for row in rows:
        base = dict(start_time=0.0, duration=1.0, honeypot_id="p0",
                    protocol="ssh", client_country="US")
        base.update(row)
        builder.append(SessionRecord(**base))
    return builder.build()


class TestAsCounts:
    def test_by_category(self):
        counts = as_counts_by_category(tiny_store())
        assert counts["NO_CRED"] == 1
        assert counts["CMD"] == 1
        assert counts["FAIL_LOG"] == 0

    def test_negative_asn_ignored(self):
        builder = StoreBuilder()
        builder.append(SessionRecord(
            start_time=0.0, duration=1.0, honeypot_id="p0", protocol="ssh",
            client_ip=1, client_asn=-1, client_country="",
            n_login_attempts=0, login_success=False,
        ))
        counts = as_counts_by_category(builder.build())
        assert counts["NO_CRED"] == 0
        assert sum(counts.values()) == 0


class TestNetworkTypes:
    def test_generated_category_ordering(self, small_dataset):
        # Paper: AS diversity shrinks with interaction depth
        # (NO_CRED 14k > FAIL_LOG 11.7k ~ CMD 10.6k > NO_CMD 8.5k > URI 1.3k).
        counts = as_counts_by_category(small_dataset.store)
        assert counts["NO_CRED"] > counts["NO_CMD"]
        assert counts["NO_CRED"] > counts["CMD_URI"]
        assert counts["CMD"] > counts["CMD_URI"]
