"""Tests for abuse-notification reports."""

from repro.core.notify import build_abuse_reports
from repro.intel.database import IntelDatabase
from repro.intel.tags import ThreatTag
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder


def build_store():
    builder = StoreBuilder()
    # AS 100: scanner IP (12 scans) + intruder IP (3 sessions, one hash).
    for i in range(12):
        builder.append(SessionRecord(
            start_time=i * 86_400.0, duration=1.0, honeypot_id="p0",
            protocol="telnet", client_ip=10, client_asn=100,
            client_country="CN", n_login_attempts=0, login_success=False,
        ))
    for i in range(3):
        builder.append(SessionRecord(
            start_time=i * 86_400.0, duration=1.0, honeypot_id="p1",
            protocol="ssh", client_ip=11, client_asn=100, client_country="CN",
            n_login_attempts=1, login_success=True, commands=("x",),
            file_hashes=("d" * 64,),
        ))
    # AS 200: below the notification threshold.
    builder.append(SessionRecord(
        start_time=0.0, duration=1.0, honeypot_id="p0", protocol="ssh",
        client_ip=20, client_asn=200, client_country="US",
        n_login_attempts=0, login_success=False,
    ))
    return builder.build()


class TestAbuseReports:
    def setup_method(self):
        self.store = build_store()
        self.intel = IntelDatabase()
        self.intel.register("d" * 64, ThreatTag.MIRAI)

    def test_threshold(self):
        reports = build_abuse_reports(self.store, self.intel, min_sessions=10)
        assert len(reports) == 1
        assert reports[0].asn == 100

    def test_report_contents(self):
        report = build_abuse_reports(self.store, self.intel, min_sessions=10)[0]
        assert report.n_sessions == 15
        assert report.country == "CN"
        assert len(report.ips) == 2
        assert report.n_hashes == 1
        assert report.tagged_hashes == {"mirai": 1}
        assert report.window_start == "2021-12-01"

    def test_offender_details(self):
        report = build_abuse_reports(self.store, self.intel, min_sessions=10)[0]
        by_ip = {o.ip: o for o in report.ips}
        assert by_ip[10].behaviours == ["scanning"]
        assert by_ip[10].n_sessions == 12
        assert by_ip[11].behaviours == ["intrusion"]
        assert by_ip[11].hashes == ["d" * 64]

    def test_severity_triage(self):
        report = build_abuse_reports(self.store, self.intel, min_sessions=10)[0]
        assert report.severity == "critical"  # malware hash present

    def test_severity_scanning_only(self):
        builder = StoreBuilder()
        for i in range(20):
            builder.append(SessionRecord(
                start_time=0.0, duration=1.0, honeypot_id="p0",
                protocol="telnet", client_ip=5, client_asn=300,
                client_country="US", n_login_attempts=0, login_success=False,
            ))
        report = build_abuse_reports(builder.build(), IntelDatabase(),
                                     min_sessions=10)[0]
        assert report.severity == "low"

    def test_render(self):
        report = build_abuse_reports(self.store, self.intel, min_sessions=10)[0]
        text = report.render()
        assert "AS100" in text
        assert "critical" in text
        assert "mirai" in text
        assert "0.0.0.10" in text

    def test_generated_reports(self, small_dataset):
        reports = build_abuse_reports(small_dataset.store, small_dataset.intel,
                                      min_sessions=50, top_k_ases=10)
        assert len(reports) == 10
        # Ordered by volume.
        volumes = [r.n_sessions for r in reports]
        assert volumes == sorted(volumes, reverse=True)
        # At least one AS carries intrusion evidence.
        assert any(r.severity in ("critical", "high") for r in reports)
