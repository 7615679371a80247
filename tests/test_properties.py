"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import CATEGORIES, Category, classify_store
from repro.core.ecdf import Ecdf
from repro.honeypot.filesystem import FakeFilesystem, hash_content
from repro.honeypot.shell.parser import split_command_line
from repro.honeypot.uri import extract_uris
from repro.net.ip import IPv4Prefix, format_ip, parse_ip
from repro.simulation.rng import RngStream
from repro.store.interning import StringTable
from repro.store.io import record_from_dict, record_to_dict
from repro.store.records import SessionRecord
from repro.store.store import StoreBuilder

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestIpProperties:
    @given(ips)
    def test_format_parse_roundtrip(self, value):
        assert parse_ip(format_ip(value)) == value

    @given(ips, st.integers(min_value=0, max_value=32))
    def test_prefix_contains_its_network(self, value, length):
        network = value & (((1 << length) - 1) << (32 - length) if length else 0)
        prefix = IPv4Prefix(network & 0xFFFFFFFF, length)
        assert prefix.contains(prefix.network)
        assert prefix.contains(prefix.last)

    @given(ips, st.integers(min_value=8, max_value=32))
    def test_prefix_membership_matches_offset(self, value, length):
        mask = (((1 << length) - 1) << (32 - length)) & 0xFFFFFFFF
        prefix = IPv4Prefix(value & mask, length)
        for offset in {0, prefix.num_addresses - 1}:
            assert prefix.contains(prefix.address_at(offset))


class TestHashProperties:
    @given(st.binary(max_size=512))
    def test_hash_is_hex64(self, content):
        digest = hash_content(content)
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    @given(st.binary(max_size=128), st.binary(max_size=128))
    def test_equal_iff_same_content(self, a, b):
        assert (hash_content(a) == hash_content(b)) == (a == b)


class TestEcdfProperties:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1, max_size=200))
    def test_monotone_and_bounded(self, values):
        ecdf = Ecdf(values)
        xs = sorted(set(values))
        ys = [ecdf(x) for x in xs]
        assert all(0.0 <= y <= 1.0 for y in ys)
        assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))
        assert ecdf(max(xs)) == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=100),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_inverts_cdf(self, values, q):
        ecdf = Ecdf(values)
        x = ecdf.quantile(q)
        assert ecdf(x) >= q - 1e-9


class TestStringTableProperties:
    @given(st.lists(st.text(max_size=20)))
    def test_ids_bijective(self, strings):
        table = StringTable()
        ids = [table.intern(s) for s in strings]
        for s, i in zip(strings, ids):
            assert table.id_of(s) == i
            assert table.value_of(i) == s
        assert len(table) == len(set(strings))


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(
        alphabet=string.ascii_lowercase + ".", min_size=1, max_size=12))
    def test_streams_reproducible(self, seed, name):
        a = RngStream(seed, name)
        b = RngStream(seed, name)
        assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]

    @given(st.integers(min_value=1, max_value=10_000),
           st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                    max_size=20))
    def test_multinomial_conserves_total(self, n, weights):
        counts = RngStream(1, "m").multinomial(n, weights)
        assert counts.sum() == n
        assert (counts >= 0).all()


class TestParserProperties:
    safe_text = st.text(
        alphabet=string.ascii_letters + string.digits + " -./;|&\"'",
        max_size=80,
    )

    @given(safe_text)
    def test_never_crashes(self, line):
        commands = split_command_line(line)
        for command in commands:
            assert command.text.strip() == command.text

    @given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1,
                            max_size=8), min_size=1, max_size=5))
    def test_semicolon_join_splits_back(self, words):
        line = "; ".join(words)
        commands = split_command_line(line)
        assert [c.name for c in commands] == words

    @given(safe_text)
    def test_uri_extraction_never_crashes(self, line):
        uris = extract_uris(line)
        assert isinstance(uris, list)


class TestFilesystemProperties:
    names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)

    @given(st.lists(st.tuples(names, st.binary(max_size=64)), min_size=1,
                    max_size=20))
    def test_write_read_roundtrip(self, files):
        fs = FakeFilesystem()
        expected = {}
        for name, content in files:
            path = f"/tmp/{name}"
            fs.write(path, content)
            expected[path] = content
        for path, content in expected.items():
            assert fs.read(path) == content

    @given(names, st.binary(max_size=64), st.binary(max_size=64))
    def test_create_then_modify_flags(self, name, first, second):
        fs = FakeFilesystem()
        path = f"/tmp/{name}"
        _, created1 = fs.write(path, first)
        _, created2 = fs.write(path, second)
        assert created1 and not created2


def _arbitrary_record(draw):
    n_attempts = draw(st.integers(min_value=0, max_value=5))
    success = draw(st.booleans()) if n_attempts else False
    commands = tuple(draw(st.lists(
        st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=12),
        max_size=4))) if success else ()
    uris = ("http://x.example/f",) if (commands and draw(st.booleans())) else ()
    return SessionRecord(
        start_time=draw(st.floats(min_value=0, max_value=485 * 86_400)),
        # width=32 keeps durations exactly representable in the store's
        # float32 duration column.
        duration=draw(st.floats(min_value=0.125, max_value=3600, width=32)),
        honeypot_id=draw(st.sampled_from(["hp-1", "hp-2", "hp-3"])),
        protocol=draw(st.sampled_from(["ssh", "telnet"])),
        client_ip=draw(ips),
        client_asn=draw(st.integers(min_value=-1, max_value=70000)),
        client_country=draw(st.sampled_from(["US", "CN", "DE", ""])),
        n_login_attempts=n_attempts,
        login_success=success,
        username="root" if success else "",
        password="pw" if n_attempts else "",
        commands=commands,
        uris=uris,
        file_hashes=tuple(draw(st.lists(
            st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
            max_size=2))) if commands else (),
    )


records = st.builds(lambda d: _arbitrary_record(d.draw),
                    st.data())


def _category_of(record: SessionRecord) -> Category:
    """Figure 5's decision tree on one record: the row-wise oracle the
    vectorised ``classify_store`` must agree with."""
    if record.n_login_attempts == 0:
        return Category.NO_CRED
    if not record.login_success:
        return Category.FAIL_LOG
    if not record.commands:
        return Category.NO_CMD
    return Category.CMD_URI if record.uris else Category.CMD


class TestStoreProperties:
    @given(st.data())
    @settings(max_examples=50)
    def test_roundtrip_and_classification(self, data):
        record_list = [
            _arbitrary_record(data.draw) for _ in range(data.draw(
                st.integers(min_value=1, max_value=12)))
        ]
        builder = StoreBuilder()
        for record in record_list:
            builder.append(record)
        store = builder.build()
        codes = classify_store(store)
        for i, record in enumerate(record_list):
            assert store.record(i) == record
            assert CATEGORIES[codes[i]] is _category_of(record)

    @given(st.data())
    @settings(max_examples=30)
    def test_json_roundtrip(self, data):
        record = _arbitrary_record(data.draw)
        assert record_from_dict(record_to_dict(record)) == record
