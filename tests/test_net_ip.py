"""Tests for IPv4 addresses and prefixes."""

import pytest

from repro.net.ip import IPv4Prefix, format_ip, parse_ip


class TestParseFormat:
    def test_parse_basic(self):
        assert parse_ip("10.0.0.1") == (10 << 24) | 1

    def test_parse_zero(self):
        assert parse_ip("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ip("255.255.255.255") == 0xFFFFFFFF

    def test_format_roundtrip(self):
        for text in ("1.2.3.4", "192.0.2.255", "0.0.0.0", "255.255.255.255"):
            assert format_ip(parse_ip(text)) == text

    @pytest.mark.parametrize("bad", [
        "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.a", "01.2.3.4", "", "1..2.3",
    ])
    def test_parse_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(-1)
        with pytest.raises(ValueError):
            format_ip(2 ** 32)


class TestIPv4Prefix:
    def test_parse(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        assert p.length == 24
        assert str(p) == "192.0.2.0/24"

    def test_num_addresses(self):
        assert IPv4Prefix.parse("10.0.0.0/8").num_addresses == 2 ** 24
        assert IPv4Prefix.parse("10.0.0.0/32").num_addresses == 1

    def test_contains(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        assert p.contains(parse_ip("192.0.2.1"))
        assert p.contains(parse_ip("192.0.2.255"))
        assert not p.contains(parse_ip("192.0.3.0"))

    def test_contains_operator(self):
        p = IPv4Prefix.parse("10.0.0.0/8")
        assert parse_ip("10.1.2.3") in p

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix(parse_ip("192.0.2.1"), 24)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix(0, 33)

    def test_address_at(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        assert format_ip(p.address_at(0)) == "192.0.2.0"
        assert format_ip(p.address_at(255)) == "192.0.2.255"

    def test_address_at_out_of_range(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        with pytest.raises(IndexError):
            p.address_at(256)

    def test_first_last(self):
        p = IPv4Prefix.parse("192.0.2.0/30")
        assert format_ip(p.network) == "192.0.2.0"
        assert format_ip(p.last) == "192.0.2.3"

    def test_zero_length_prefix(self):
        p = IPv4Prefix(0, 0)
        assert p.contains(parse_ip("255.255.255.255"))
        assert p.mask == 0

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("10.0.0.0")
