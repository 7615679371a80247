"""Tests for SSH client-version analysis."""

from repro.core.versions import version_counts
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def build_store():
    builder = StoreBuilder()
    rows = [
        ("ssh", "SSH-2.0-Go", 0),
        ("ssh", "SSH-2.0-Go", 0),
        ("ssh", "SSH-2.0-libssh2_1.4.3", 1),
        ("ssh", "", 0),
        ("telnet", "", 0),
    ]
    for protocol, version, attempts in rows:
        builder.append(SessionRecord(
            start_time=0.0, duration=1.0, honeypot_id="p0",
            protocol=protocol, client_ip=1, client_asn=1, client_country="US",
            n_login_attempts=attempts, login_success=False,
            client_version=version,
        ))
    return builder.build()


class TestVersionCounts:
    def test_ranking(self):
        counts = version_counts(build_store())
        assert counts[0] == ("SSH-2.0-Go", 2)
        assert counts[1] == ("SSH-2.0-libssh2_1.4.3", 1)

    def test_mask(self):
        store = build_store()
        counts = version_counts(store, store.n_attempts > 0)
        assert counts == [("SSH-2.0-libssh2_1.4.3", 1)]

    def test_empty(self):
        store = StoreBuilder().build()
        assert version_counts(store) == []


class TestGenerated:
    def test_known_tooling_observed(self, small_store):
        counts = dict(version_counts(small_store))
        # The common bot stacks appear in the trace.
        assert any(v.startswith("SSH-2.0-libssh") for v in counts)
        assert any("Go" in v for v in counts)
