"""Tests for the threat-intel database."""

from repro.intel.database import IntelDatabase
from repro.intel.tags import FAMILY_TAGS, FLAG_TAGS, ThreatTag


class TestIntelDatabase:
    def test_register_and_lookup(self):
        db = IntelDatabase()
        db.register("abc", ThreatTag.MIRAI, family="H4")
        entry = db.lookup("abc")
        assert entry is not None
        assert entry.tag is ThreatTag.MIRAI
        assert entry.family == "H4"
        assert db.tag_of("abc") is ThreatTag.MIRAI

    def test_lookup_miss(self):
        assert IntelDatabase().lookup("missing") is None

    def test_tag_of_unknown(self):
        assert IntelDatabase().tag_of("missing") is ThreatTag.UNKNOWN

    def test_coverage(self):
        db = IntelDatabase()
        db.register("a", ThreatTag.TROJAN)
        assert db.coverage(["a", "b", "c", "d"]) == 0.25
        assert db.coverage([]) == 0.0

    def test_hit_accounting(self):
        db = IntelDatabase()
        db.register("a", ThreatTag.MINER)
        db.lookup("a")
        db.lookup("b")
        assert db.lookups == 2
        assert db.hits == 1

    def test_contains_and_len(self):
        db = IntelDatabase()
        db.register("a", ThreatTag.SUSPICIOUS)
        assert "a" in db
        assert "b" not in db
        assert len(db) == 1

    def test_reregister_overwrites(self):
        db = IntelDatabase()
        db.register("a", ThreatTag.SUSPICIOUS)
        db.register("a", ThreatTag.MALICIOUS)
        assert db.tag_of("a") is ThreatTag.MALICIOUS
        assert len(db) == 1

    def test_tag_partitions(self):
        assert set(FAMILY_TAGS).isdisjoint(FLAG_TAGS)
        assert ThreatTag.UNKNOWN not in FAMILY_TAGS
