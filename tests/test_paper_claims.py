"""The paper-claims table: no bound looser than the ones it replaced,
and the bench-volume band picked by session count."""

import math
from types import SimpleNamespace

import pytest

from repro.workload.validation import (
    FULL_BAND_SESSIONS,
    PAPER_CLAIMS,
    CheckKind,
    paper_claim,
)

APPROX, AT_LEAST, AT_MOST = CheckKind.APPROX, CheckKind.AT_LEAST, CheckKind.AT_MOST

#: Every bound ``validate`` checked before the table, as (kind, value,
#: tolerance).  Each held at every scale.
OLD_VALIDATE = {
    "honeypots": (APPROX, 221, 0.0),
    "countries": (APPROX, 55, 0.0),
    "honeypot ASes": (APPROX, 65, 0.0),
    "NO_CRED share": (APPROX, 0.277, 0.03),
    "FAIL_LOG share": (APPROX, 0.42, 0.03),
    "NO_CMD share": (APPROX, 0.116, 0.03),
    "CMD share": (APPROX, 0.18, 0.03),
    "CMD_URI share": (APPROX, 0.007, 0.03),
    "SSH share": (APPROX, 0.7584, 0.03),
    "top-10 session share": (APPROX, 0.14, 0.06),
    "max/min pot sessions": (AT_LEAST, 8.0, 0.0),
    "single-pot client share": (AT_LEAST, 0.30, 0.0),
    ">10-pot client share": (APPROX, 0.18, 0.10),
    "single-day client share": (AT_LEAST, 0.38, 0.0),
    "multi-category client share": (AT_LEAST, 0.25, 0.0),
    "single-pot hash share": (AT_LEAST, 0.60, 0.0),
    "top pot hash share": (AT_MOST, 0.12, 0.0),
    "out-of-continent-only client-days": (AT_LEAST, 0.40, 0.0),
    "threat-intel hash coverage": (AT_MOST, 0.10, 0.0),
}

#: The paper benches' asserts on the same claims, as closed [low, high]
#: intervals (a strict ``<`` became a closed bound at the same number).
#: They ran on the bench-volume trace (1/1000, 402,000 sessions).
OLD_BENCH = [
    ("honeypots", 221, 221),                       # fig01: == 221
    ("countries", 55, 55),                         # fig01: == 55
    ("honeypot ASes", 65, 65),                     # fig01: == 65
    ("top-10 session share", 0.08, 0.22),          # fig02: 0.08 < x < 0.22
    ("max/min pot sessions", 8, math.inf),         # fig02: x > 8
    ("single-pot client share", 0.30, math.inf),   # fig12: x > 0.30
    (">10-pot client share", 0.05, 0.35),          # fig12: 0.05 < x < 0.35
    ("single-day client share", 0.45, math.inf),   # fig13: x > 0.45
    ("out-of-continent-only client-days", 0.40, math.inf),  # fig16: x > 0.40
    ("top pot hash share", -math.inf, 0.10),       # fig18: x < 0.10
    ("FAIL_LOG share", 0.42 - 0.05, 0.42 + 0.05),  # table1: |x - 0.42| < 0.05
    ("SSH share", 0.758 - 0.05, 0.758 + 0.05),     # table1: |x - 0.758| < 0.05
]


def interval(kind, bound, tolerance):
    if kind is APPROX:
        return bound - tolerance, bound + tolerance
    if kind is AT_LEAST:
        return bound, math.inf
    return -math.inf, bound


def table_interval(name, sessions):
    claim = paper_claim(name)
    return interval(claim.kind, claim.bound_for(sessions), claim.tolerance)


def within(inner, outer):
    return outer[0] <= inner[0] and inner[1] <= outer[1]


BANDS = (FULL_BAND_SESSIONS - 1, FULL_BAND_SESSIONS)


def test_no_bound_is_looser_than_before():
    checked = [c.name for c in PAPER_CLAIMS if c.kind is not None]
    assert checked == list(OLD_VALIDATE)
    for name, (kind, value, tolerance) in OLD_VALIDATE.items():
        assert paper_claim(name).kind is kind, name
        assert paper_claim(name).hard is (name != "threat-intel hash coverage")
        for sessions in BANDS:
            assert within(table_interval(name, sessions),
                          interval(kind, value, tolerance)), (name, sessions)
    for name, low, high in OLD_BENCH:
        assert within(table_interval(name, FULL_BAND_SESSIONS),
                      (low, high)), name


@pytest.mark.parametrize("name, base, full, measured", [
    ("single-day client share", 0.38, 0.45, 0.44),
    ("top pot hash share", 0.12, 0.10, 0.11),
])
def test_bench_volume_band_starts_at_402000_sessions(name, base, full,
                                                     measured):
    assert FULL_BAND_SESSIONS == 402_000
    claim = paper_claim(name)
    key = {"single-day client share": "share_single_day",
           "top pot hash share": "top_pot_hash_share"}[name]
    for sessions, bound, passed in ((FULL_BAND_SESSIONS - 1, base, True),
                                    (FULL_BAND_SESSIONS, full, False)):
        summaries = SimpleNamespace(
            ctx=SimpleNamespace(store=range(sessions)),
            per_client={key: measured}, coverage={key: measured})
        check = claim.check(summaries)
        assert check.paper_value == bound
        assert check.passed is passed


def test_unbanded_claims_keep_one_bound():
    for claim in PAPER_CLAIMS:
        if claim.kind is not None and claim.full_bound is None:
            assert claim.bound_for(0) == claim.bound_for(10 ** 9), claim.name


def test_paper_text():
    assert paper_claim("single-pot client share").text == ">40%"
    assert paper_claim("knee rank").text == "~11"
    assert paper_claim("max/min pot sessions").text == ">30x"
    assert paper_claim("unique hashes").text == "64,004"
    with pytest.raises(StopIteration):
        paper_claim("no such claim")
