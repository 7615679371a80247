"""Tests for the structured calibration validator."""

import math

import pytest

from repro.api import load
from repro.store.npz import save_npz
from repro.workload.validation import (
    CalibrationCheck,
    CalibrationReport,
    CheckKind,
    validate,
)


class TestCheckSemantics:
    def test_approx_pass(self):
        check = CalibrationCheck("x", 0.42, 0.44, CheckKind.APPROX, 0.03)
        assert check.passed

    def test_approx_fail(self):
        check = CalibrationCheck("x", 0.42, 0.50, CheckKind.APPROX, 0.03)
        assert not check.passed

    def test_at_least(self):
        assert CalibrationCheck("x", 0.5, 0.6, CheckKind.AT_LEAST).passed
        assert not CalibrationCheck("x", 0.5, 0.4, CheckKind.AT_LEAST).passed

    def test_at_most(self):
        assert CalibrationCheck("x", 0.05, 0.04, CheckKind.AT_MOST).passed
        assert not CalibrationCheck("x", 0.05, 0.06, CheckKind.AT_MOST).passed

    def test_str_marks(self):
        ok = CalibrationCheck("a", 1.0, 1.0, CheckKind.APPROX, 0.1)
        bad = CalibrationCheck("b", 1.0, 9.0, CheckKind.APPROX, 0.1)
        soft = CalibrationCheck("c", 1.0, 9.0, CheckKind.APPROX, 0.1, hard=False)
        assert "ok" in str(ok)
        assert "FAIL" in str(bad)
        assert "soft" in str(soft)

    def test_absent_input_is_not_ok(self):
        absent = CalibrationCheck("d", 0.1, math.nan, CheckKind.AT_MOST,
                                  hard=False)
        assert not absent.applicable
        assert str(absent).startswith("[n/a] d:")
        assert "measured n/a" in str(absent)


class TestReport:
    def test_passed_ignores_soft(self):
        report = CalibrationReport(checks=[
            CalibrationCheck("hard-ok", 1.0, 1.0, CheckKind.APPROX, 0.1),
            CalibrationCheck("soft-bad", 1.0, 9.0, CheckKind.APPROX, 0.1,
                             hard=False),
        ])
        assert report.passed
        assert report.failures == []

    def test_failures_listed(self):
        bad = CalibrationCheck("hard-bad", 1.0, 9.0, CheckKind.APPROX, 0.1)
        report = CalibrationReport(checks=[bad])
        assert not report.passed
        assert report.failures == [bad]

    def test_render(self):
        report = CalibrationReport(checks=[
            CalibrationCheck("one", 1.0, 1.0, CheckKind.APPROX, 0.1),
        ])
        assert "one" in report.render()


class TestGeneratedDataset:
    def test_small_dataset_calibrates(self, small_dataset):
        report = validate(small_dataset)
        assert report.passed, report.render()

    def test_check_count(self, small_dataset):
        report = validate(small_dataset)
        # Every published target family is checked.
        assert len(report.checks) >= 15
        names = {c.name for c in report.checks}
        assert "honeypots" in names
        assert "SSH share" in names
        assert "top-10 session share" in names
        assert "single-pot hash share" in names


class TestBareStore:
    def test_intel_coverage_is_na_without_intel(self, small_dataset,
                                                 small_config, tmp_path):
        """A bare npz loads with an empty intel DB: its coverage check
        has nothing to measure and must not print ``ok``."""
        path = tmp_path / "bare.npz"
        save_npz(small_dataset.store, path)
        bare = load(path, small_config)
        assert len(bare.intel) == 0
        generated = validate(small_dataset)
        report = validate(bare)
        intel = next(c for c in report.checks
                     if c.name == "threat-intel hash coverage")
        assert str(intel).startswith("[n/a] ")
        assert not intel.hard
        assert "[ok ] threat-intel" not in report.render()
        # Still soft: the verdict and the hard failures are the generated
        # dataset's.
        assert report.passed == generated.passed
        assert [c.name for c in report.failures] == \
            [c.name for c in generated.failures]
        generated_intel = next(c for c in generated.checks
                               if c.name == "threat-intel hash coverage")
        assert generated_intel.applicable
