"""Tests for text-processing shell commands."""

import pytest

from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.shell import EmulatedShell


@pytest.fixture
def shell():
    return EmulatedShell(ShellContext(fs=FakeFilesystem()))


def run(shell, line):
    result = shell.execute(line)
    return result.commands[-1].output


class TestWc:
    def test_wc_l_on_file(self, shell):
        shell.execute("echo -e 'a\\nb\\nc' > /tmp/f")
        assert run(shell, "wc -l /tmp/f") == "3"

    def test_wc_bare_pipeline_stage(self, shell):
        # The classic core-count probe ends in `| wc -l`.
        out = run(shell, "cat /proc/cpuinfo | grep name | wc -l")
        assert out == "1"

    def test_wc_words(self, shell):
        shell.execute("echo 'one two three' > /tmp/w")
        assert run(shell, "wc -w /tmp/w") == "3"

    def test_wc_full(self, shell):
        shell.execute("echo hi > /tmp/h")
        lines, words, chars = run(shell, "wc /tmp/h").split()
        assert (lines, words) == ("1", "1")


class TestSortUniq:
    def test_sort(self, shell):
        shell.execute("echo -e 'b\\na\\nc' > /tmp/s")
        assert run(shell, "sort /tmp/s") == "a\nb\nc"

    def test_sort_reverse(self, shell):
        shell.execute("echo -e 'b\\na' > /tmp/s")
        assert run(shell, "sort -r /tmp/s") == "b\na"

    def test_uniq(self, shell):
        shell.execute("echo -e 'x\\nx\\ny\\nx' > /tmp/u")
        assert run(shell, "uniq /tmp/u") == "x\ny\nx"


class TestHashing:
    def test_md5sum(self, shell):
        shell.execute("echo payload > /tmp/p")
        out = run(shell, "md5sum /tmp/p")
        digest = out.split()[0]
        assert len(digest) == 32

    def test_md5sum_missing(self, shell):
        assert "No such file" in run(shell, "md5sum /nope")

    def test_base64_roundtrip(self, shell):
        shell.execute("echo hello > /tmp/b")
        encoded = run(shell, "base64 /tmp/b")
        shell.execute(f"echo {encoded} > /tmp/enc")
        decoded = run(shell, "base64 -d /tmp/enc")
        assert decoded.strip() == "hello"


class TestKnownStatus:
    def test_all_registered(self):
        from repro.honeypot.shell.base import default_registry
        registry = default_registry()
        for name in ("wc", "sort", "uniq", "md5sum", "base64", "tr", "cut"):
            assert registry.is_known(name), name


class TestStoreFilter:
    def test_filter_subset(self, small_store):
        import numpy as np
        mask = small_store.protocol == 0
        sub = small_store.filter(mask)
        assert len(sub) == int(mask.sum())
        assert sub.is_ssh.all()
        # Side tables shared: interned ids remain valid.
        assert sub.honeypots is small_store.honeypots

    def test_filter_record_identity(self, small_store):
        import numpy as np
        mask = np.zeros(len(small_store), dtype=bool)
        mask[7] = True
        sub = small_store.filter(mask)
        assert sub.record(0) == small_store.record(7)

    def test_filter_bad_mask(self, small_store):
        import numpy as np
        with pytest.raises(ValueError):
            small_store.filter(np.zeros(3, dtype=bool))
