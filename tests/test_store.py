"""Tests for the columnar session store (interning, builder, round trips)."""

import pytest

from repro.store.interning import StringTable
from repro.store.records import CommandScript, SessionRecord
from repro.store.store import PROTOCOL_SSH, PROTOCOL_TELNET, StoreBuilder


def make_record(**overrides):
    base = dict(
        start_time=86_400.0 + 100.0,
        duration=12.5,
        honeypot_id="hp-001",
        protocol="ssh",
        client_ip=0x0A000001,
        client_asn=65001,
        client_country="CN",
        n_login_attempts=2,
        login_success=True,
        username="root",
        password="1234",
        commands=("uname -a", "free"),
        uris=(),
        file_hashes=("a" * 64,),
        close_reason="client-disconnect",
        client_version="SSH-2.0-Go",
    )
    base.update(overrides)
    return SessionRecord(**base)


class TestStringTable:
    def test_intern_stable_ids(self):
        table = StringTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0

    def test_value_roundtrip(self):
        table = StringTable(["x", "y"])
        assert table.value_of(table.id_of("y")) == "y"

    def test_contains_len(self):
        table = StringTable(["x"])
        assert "x" in table
        assert "y" not in table
        assert len(table) == 1

    def test_get_id_missing(self):
        assert StringTable().get_id("nope") is None

    def test_id_of_missing_raises(self):
        with pytest.raises(KeyError):
            StringTable().id_of("nope")

    def test_values_copy(self):
        table = StringTable(["x"])
        values = table.values()
        values.append("mutate")
        assert len(table) == 1


class TestBuilderRoundtrip:
    def test_append_and_read_back(self):
        builder = StoreBuilder()
        record = make_record()
        builder.append(record)
        store = builder.build()
        assert len(store) == 1
        back = store.record(0)
        assert back == record

    def test_day_column(self):
        builder = StoreBuilder()
        builder.append(make_record(start_time=3 * 86_400.0 + 5))
        store = builder.build()
        assert store.day[0] == 3
        assert store.n_days == 4

    def test_script_interning_shares(self):
        builder = StoreBuilder()
        builder.append(make_record())
        builder.append(make_record(client_ip=9))
        store = builder.build()
        assert len(store.scripts) == 1
        assert store.script_id[0] == store.script_id[1] == 0

    def test_different_scripts_distinct(self):
        builder = StoreBuilder()
        builder.append(make_record())
        builder.append(make_record(commands=("ls",)))
        assert len(builder.scripts) == 2

    def test_empty_script_is_minus_one(self):
        builder = StoreBuilder()
        builder.append(make_record(commands=(), file_hashes=()))
        store = builder.build()
        assert store.script_id[0] == -1
        assert store.n_commands[0] == 0

    def test_n_commands_and_has_uri(self):
        builder = StoreBuilder()
        builder.append(make_record(commands=("wget http://x/y",), uris=("http://x/y",)))
        store = builder.build()
        assert store.n_commands[0] == 1
        assert bool(store.has_uri[0])

    def test_protocol_codes(self):
        builder = StoreBuilder()
        builder.append(make_record(protocol="ssh"))
        builder.append(make_record(protocol="telnet"))
        store = builder.build()
        assert store.protocol[0] == PROTOCOL_SSH
        assert store.protocol[1] == PROTOCOL_TELNET
        assert store.is_ssh[0] and store.is_telnet[1]

    def test_hash_interning(self):
        builder = StoreBuilder()
        builder.append(make_record())
        builder.append(make_record(file_hashes=("a" * 64, "b" * 64)))
        store = builder.build()
        assert len(store.hashes) == 2
        assert store.hash_ids[0] == (0,)
        assert store.hash_ids[1] == (0, 1)

    def test_empty_store(self):
        store = StoreBuilder().build()
        assert len(store) == 0
        assert store.n_days == 0

    def test_missing_credentials(self):
        builder = StoreBuilder()
        builder.append(make_record(username="", password="", client_version=""))
        store = builder.build()
        record = store.record(0)
        assert record.username == ""
        assert record.password == ""
        assert record.client_version == ""

    def test_iteration(self):
        builder = StoreBuilder()
        for i in range(5):
            builder.append(make_record(client_ip=i))
        store = builder.build()
        assert len(list(store)) == 5

    def test_append_block_matches_per_row(self):
        b1 = StoreBuilder()
        b1.append(make_record())
        b2 = StoreBuilder()
        script_id = b2.intern_script(("uname -a", "free"), ())
        b2.append_block(
            start_time=[86_500.0], duration=[12.5],
            honeypot_id=[b2.honeypots.intern("hp-001")],
            protocol=[0], client_ip=[0x0A000001], client_asn=[65001],
            client_country_id=[b2.countries.intern("CN")],
            n_attempts=[2], login_success=[True], script_id=[script_id],
            password_id=[b2.passwords.intern("1234")],
            username_id=[b2.usernames.intern("root")],
            hash_ids=[(b2.hashes.intern("a" * 64),)],
            close_reason_id=[0],
            version_id=[b2.versions.intern("SSH-2.0-Go")],
        )
        s1, s2 = b1.build(), b2.build()
        assert s1.record(0) == s2.record(0)

    def test_append_block_length_mismatch(self):
        builder = StoreBuilder()
        with pytest.raises(ValueError):
            builder.append_block(
                start_time=[1.0], duration=[1.0, 2.0], honeypot_id=[0],
                protocol=[0], client_ip=[0], client_asn=[0],
                client_country_id=[0], n_attempts=[0], login_success=[False],
                script_id=[-1], password_id=[-1], username_id=[-1],
                hash_ids=[()], close_reason_id=[0], version_id=[-1],
            )


class TestCommandScript:
    def test_has_uri(self):
        assert CommandScript(("wget x",), ("http://x",)).has_uri
        assert not CommandScript(("uname",)).has_uri

    def test_key(self):
        script = CommandScript(("a",), ("u",))
        assert script.key() == (("a",), ("u",))


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        from repro.store.io import read_jsonl, write_jsonl
        records = [make_record(client_ip=i) for i in range(10)]
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(records, path) == 10
        store = read_jsonl(path)
        assert len(store) == 10
        assert store.record(3).client_ip == 3

    def test_gzip_roundtrip(self, tmp_path):
        from repro.store.io import read_jsonl, write_jsonl
        path = tmp_path / "trace.jsonl.gz"
        write_jsonl([make_record()], path)
        store = read_jsonl(path)
        assert store.record(0) == make_record()

    def test_iter_streaming(self, tmp_path):
        from repro.store.io import iter_jsonl, write_jsonl
        path = tmp_path / "t.jsonl"
        write_jsonl([make_record(client_ip=i) for i in range(3)], path)
        assert sum(1 for _ in iter_jsonl(path)) == 3

    def test_missing_optional_fields(self, tmp_path):
        import json
        from repro.store.io import iter_jsonl
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({
            "start_time": 0.0, "duration": 1.0, "honeypot_id": "h",
            "protocol": "ssh", "client_ip": 1,
        }) + "\n")
        record = next(iter_jsonl(path))
        assert record.client_asn == -1
        assert record.commands == ()

    @pytest.mark.parametrize("name", ["t.jsonl", "t.jsonl.gz"])
    def test_failed_write_keeps_previous_file(self, tmp_path, name):
        from repro.store.io import read_jsonl, write_jsonl
        path = tmp_path / name
        write_jsonl([make_record(client_ip=i) for i in range(3)], path)
        before = path.read_bytes()

        def failing():
            yield make_record(client_ip=7)
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            write_jsonl(failing(), path)
        assert path.read_bytes() == before
        assert len(read_jsonl(path)) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_line_cut_mid_record_names_path_and_line(self, tmp_path):
        from repro.store.io import iter_jsonl, write_jsonl
        path = tmp_path / "t.jsonl"
        write_jsonl([make_record(client_ip=i) for i in range(3)], path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 20])
        with pytest.raises(ValueError, match=r"t\.jsonl:3: truncated"):
            list(iter_jsonl(path))

    def test_gzip_stream_ended_early_names_path(self, tmp_path):
        from repro.store.io import iter_jsonl, write_jsonl
        path = tmp_path / "t.jsonl.gz"
        write_jsonl([make_record(client_ip=i) for i in range(50)], path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ValueError, match=r"t\.jsonl\.gz:\d+: "):
            list(iter_jsonl(path))

    def test_cut_at_line_boundary_is_undetectable(self, tmp_path):
        # Documented limit: without a record count or trailer, a plain
        # JSONL file cut between records is a valid, shorter trace.
        from repro.store.io import read_jsonl, write_jsonl
        path = tmp_path / "t.jsonl"
        write_jsonl([make_record(client_ip=i) for i in range(3)], path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))
        assert len(read_jsonl(path)) == 2
