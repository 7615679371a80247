"""Tests for the in-memory fake filesystem."""

import pytest

from repro.honeypot.filesystem import FakeFilesystem, hash_content


class TestHashContent:
    def test_deterministic(self):
        assert hash_content(b"abc") == hash_content(b"abc")

    def test_distinct_content_distinct_hash(self):
        assert hash_content(b"abc") != hash_content(b"abd")

    def test_sha256_hex_length(self):
        assert len(hash_content(b"")) == 64


class TestLayout:
    def setup_method(self):
        self.fs = FakeFilesystem()

    def test_default_cwd(self):
        assert self.fs.cwd == "/root"

    def test_proc_cpuinfo_present(self):
        content = self.fs.read("/proc/cpuinfo")
        assert b"ARMv7" in content

    def test_etc_passwd_present(self):
        assert b"root:" in self.fs.read("/etc/passwd")

    def test_standard_dirs(self):
        for path in ("/bin", "/tmp", "/var", "/root"):
            assert self.fs.is_dir(path)

    def test_empty_fs(self):
        fs = FakeFilesystem(populate=False)
        assert not fs.exists("/etc/passwd")

    def test_filesystems_share_no_mutable_state(self):
        # Every filesystem starts from one shared default tree; changes
        # to one must never show in another.
        self.fs.chmod("/bin/busybox", 0o700)
        self.fs.write("/etc/passwd", b"x", append=True)
        self.fs.remove("/tmp")
        fresh = FakeFilesystem()
        assert self.fs.get("/bin/busybox").mode == 0o700
        assert fresh.get("/bin/busybox").mode == 0o755
        assert fresh.read("/etc/passwd").endswith(b"nologin\n")
        assert fresh.is_dir("/tmp")


class TestPaths:
    def setup_method(self):
        self.fs = FakeFilesystem()

    def test_relative_resolution(self):
        assert self.fs.resolve("x") == "/root/x"

    def test_dotdot(self):
        assert self.fs.resolve("../tmp/y") == "/tmp/y"

    def test_absolute_unchanged(self):
        assert self.fs.resolve("/etc/passwd") == "/etc/passwd"

    def test_empty_is_cwd(self):
        assert self.fs.resolve("") == "/root"

    def test_chdir(self):
        assert self.fs.chdir("/tmp")
        assert self.fs.cwd == "/tmp"
        assert self.fs.resolve("f") == "/tmp/f"

    def test_chdir_missing_fails(self):
        assert not self.fs.chdir("/does/not/exist")
        assert self.fs.cwd == "/root"

    def test_chdir_to_file_fails(self):
        assert not self.fs.chdir("/etc/passwd")


class TestWrite:
    def setup_method(self):
        self.fs = FakeFilesystem()

    def test_create_reports_created(self):
        entry, created = self.fs.write("/tmp/new", b"hello")
        assert created
        assert entry.content == b"hello"

    def test_overwrite_reports_modified(self):
        self.fs.write("/tmp/f", b"one")
        entry, created = self.fs.write("/tmp/f", b"two")
        assert not created
        assert entry.content == b"two"

    def test_append(self):
        self.fs.write("/tmp/f", b"a")
        entry, created = self.fs.write("/tmp/f", b"b", append=True)
        assert not created
        assert entry.content == b"ab"

    def test_append_to_new_file(self):
        entry, created = self.fs.write("/tmp/g", b"x", append=True)
        assert created
        assert entry.content == b"x"

    def test_write_creates_parents(self):
        self.fs.write("/a/b/c/d", b"deep")
        assert self.fs.is_dir("/a/b/c")
        assert self.fs.read("/a/b/c/d") == b"deep"

    def test_write_over_dir_rejected(self):
        with pytest.raises(IsADirectoryError):
            self.fs.write("/tmp", b"nope")

    def test_hash_changes_with_content(self):
        e1, _ = self.fs.write("/tmp/f", b"one")
        h1 = e1.sha256
        e2, _ = self.fs.write("/tmp/f", b"two")
        assert e2.sha256 != h1

    def test_mtime_recorded(self):
        entry, _ = self.fs.write("/tmp/f", b"x", now=42.0)
        assert entry.mtime == 42.0


class TestReadListRemove:
    def setup_method(self):
        self.fs = FakeFilesystem()

    def test_read_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            self.fs.read("/nope")

    def test_read_dir_raises(self):
        with pytest.raises(IsADirectoryError):
            self.fs.read("/tmp")

    def test_listdir(self):
        self.fs.write("/tmp/a", b"")
        self.fs.write("/tmp/b", b"")
        assert self.fs.listdir("/tmp") == ["a", "b"]

    def test_listdir_nested_shows_top_level_only(self):
        self.fs.write("/tmp/sub/deep", b"")
        assert "sub" in self.fs.listdir("/tmp")
        assert "deep" not in self.fs.listdir("/tmp")

    def test_listdir_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            self.fs.listdir("/nope")

    def test_remove_file(self):
        self.fs.write("/tmp/f", b"x")
        assert self.fs.remove("/tmp/f")
        assert not self.fs.exists("/tmp/f")

    def test_remove_missing(self):
        assert not self.fs.remove("/nope")

    def test_remove_dir_recursive(self):
        self.fs.write("/tmp/d/one", b"")
        self.fs.write("/tmp/d/two", b"")
        assert self.fs.remove("/tmp/d")
        assert not self.fs.exists("/tmp/d/one")

    def test_mkdir(self):
        assert self.fs.mkdir("/newdir/sub")
        assert self.fs.is_dir("/newdir/sub")

    def test_mkdir_existing_returns_false(self):
        assert not self.fs.mkdir("/tmp")

    def test_chmod(self):
        self.fs.write("/tmp/bin", b"x")
        assert self.fs.chmod("/tmp/bin", 0o777)
        assert self.fs.get("/tmp/bin").mode == 0o777

    def test_chmod_missing(self):
        assert not self.fs.chmod("/nope", 0o777)

    def test_all_files_excludes_dirs(self):
        files = self.fs.all_files()
        assert all(not e.is_dir for e in files)
        assert any(e.path == "/etc/passwd" for e in files)
