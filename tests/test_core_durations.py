"""Tests for session-duration analysis (Figure 7)."""

import pytest

from repro.core.durations import duration_ecdfs


class TestDurationReport:
    @pytest.fixture(scope="class")
    def report(self, small_store):
        return duration_ecdfs(small_store)

    def test_all_categories(self, report):
        assert set(report.ecdfs) == {"NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD_URI"}

    def test_timeout_landmarks(self, report):
        assert report.no_login_timeout == 120.0
        assert report.idle_timeout == 180.0

    def test_durations_grow_with_interaction(self, report):
        # Paper: session durations increase with interaction depth.
        assert report.median("NO_CRED") < report.median("NO_CMD")
        assert report.median("FAIL_LOG") < report.median("CMD")

    def test_no_cmd_mostly_times_out(self, report):
        # Paper: >90% of NO_CMD sessions end at the idle timeout.
        assert report.timeout_share("NO_CMD") > 0.85

    def test_scans_mostly_short(self, report):
        assert report.ecdfs["NO_CRED"](60.0) > 0.6

    def test_uri_sessions_can_cross_timeout(self, report):
        # Paper: some CMD+URI sessions exceed three minutes (download
        # resets the timer).
        assert report.ecdfs["CMD_URI"].survival(180.0) > 0.05
