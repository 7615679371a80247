"""Smoke tests: every shipped example runs end to end."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=600,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "--scale", "40000")
        assert result.returncode == 0, result.stderr
        assert "Table 1" in result.stdout
        assert "admin" in result.stdout  # Table 2 leader

    def test_live_honeypot(self):
        result = run_example("live_honeypot.py")
        assert result.returncode == 0, result.stderr
        assert "applet not found" in result.stdout  # Mirai busybox probe
        assert "session summary" in result.stdout
        assert "honeypot.login.success" in result.stdout

    def test_campaign_forensics(self):
        result = run_example("campaign_forensics.py")
        assert result.returncode == 0, result.stderr
        assert "Table 4" in result.stdout
        assert "H1" in result.stdout
        assert "Blockable" in result.stdout

    def test_placement_study(self):
        result = run_example("placement_study.py")
        assert result.returncode == 0, result.stderr
        assert "vantage point" in result.stdout
        assert "first observer" in result.stdout

    def test_federation_value(self):
        result = run_example("federation_value.py")
        assert result.returncode == 0, result.stderr
        assert "operator 4" in result.stdout
        assert "Marginal value of scale" in result.stdout

    def test_abuse_notifications(self):
        result = run_example("abuse_notifications.py")
        assert result.returncode == 0, result.stderr
        assert "critical notification" in result.stdout
        assert "dispatch queue" in result.stdout
