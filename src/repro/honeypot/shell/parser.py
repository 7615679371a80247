"""Command-line parsing for the emulated shell.

A client input line may chain several simple commands with ``;``, ``&&``,
``||`` and ``|``.  The paper's command analysis splits recorded command
strings at ``;`` and ``|``; the shell does the same split at execution time,
so one input line yields one recorded command per stage.  Each simple
command is tokenised with quote handling and may carry ``>``/``>>`` output
redirection.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class SimpleCommand:
    """One pipeline stage: argv, original text, optional redirection."""

    text: str
    argv: List[str] = field(default_factory=list)
    redirect_path: Optional[str] = None
    redirect_append: bool = False

    @property
    def name(self) -> str:
        return self.argv[0] if self.argv else ""


_SEPARATORS = (";", "&&", "||", "|")
_QUOTES = ("'", '"', "`")

#: One scan of a line: a quoted span (to its closing quote, or to the end
#: of the line when unclosed), a top-level separator (group 1), or a lone
#: background ``&``.  Alternation order gives ``&&`` / ``||`` precedence
#: over the single-character forms, as a left-to-right character scan does.
_TOP_LEVEL = re.compile(r"""'[^']*'?|"[^"]*"?|`[^`]*`?|(&&|\|\||[;|\n])|&""")


def _split_top_level(line: str) -> List[str]:
    """Split a line at top-level separators, respecting quotes.

    Quoted spans are kept verbatim; a trailing background ``&`` is dropped
    and its command kept.
    """
    parts: List[str] = []
    buf: List[str] = []
    pos = 0
    for match in _TOP_LEVEL.finditer(line):
        start, end = match.span()
        if line[start] in _QUOTES:
            continue
        buf.append(line[pos:start])
        pos = end
        if match.group(1) is not None:
            parts.append("".join(buf))
            buf = []
    buf.append(line[pos:])
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


#: A word of plain characters and complete quoted spans, and the scan
#: that finds a quote left unclosed, for :func:`_split_words`.
_WORD = re.compile(r"""(?:[^ \t\r\n'"]|"[^"]*"|'[^']*')+""")
_UNCLOSED = re.compile(r""""[^"]*"|'[^']*'|(["'])""")
_QUOTED = re.compile(r""""([^"]*)"|'([^']*)'""")


def _unquote(match: re.Match) -> str:
    inner = match.group(1)
    return match.group(2) if inner is None else inner


def _split_words(body: str) -> List[str]:
    """``shlex.split(body, posix=True)``, or whitespace splitting where
    shlex has nothing to do or raises.

    Without backslashes, posix shlex only joins quoted spans into their
    word and drops the quote characters, which two regexes do directly;
    bodies with backslashes or an unclosed quote go through shlex.
    """
    if "\\" not in body:
        if "'" not in body and '"' not in body:
            return body.split()
        if not any(m.group(1) for m in _UNCLOSED.finditer(body)):
            return [_QUOTED.sub(_unquote, word) for word in _WORD.findall(body)]
    try:
        return shlex.split(body, posix=True)
    except ValueError:
        return body.split()


def _parse_simple(text: str) -> SimpleCommand:
    redirect_path: Optional[str] = None
    redirect_append = False
    body = text
    # Find an unquoted > or >> (scan right to left so `echo x > y` works).
    quote: Optional[str] = None
    redir_idx = -1
    for i, ch in enumerate(body):
        if quote:
            if ch == quote:
                quote = None
            continue
        if ch in _QUOTES:
            quote = ch
        elif ch == ">":
            redir_idx = i
            break
    if redir_idx >= 0:
        target = body[redir_idx:]
        body = body[:redir_idx]
        if target.startswith(">>"):
            redirect_append = True
            target = target[2:]
        else:
            target = target[1:]
        redirect_path = target.strip().split()[0] if target.strip() else None
    return SimpleCommand(
        text=text.strip(),
        argv=_split_words(body),
        redirect_path=redirect_path,
        redirect_append=redirect_append,
    )


#: Parse memo: scripted sessions re-type the same recon/dropper lines
#: endlessly, so parsing is the shell's hottest pure function.  Parsed
#: templates are cached per line; callers get fresh copies (argv included)
#: so a cached parse can never be mutated through a previous caller.
_PARSE_CACHE: dict = {}
_PARSE_CACHE_MAX = 8192


def split_command_line(line: str) -> List[SimpleCommand]:
    """Split one input line into its simple commands.

    >>> [c.name for c in split_command_line("uname -a; free -m | grep Mem")]
    ['uname', 'free', 'grep']
    """
    cached = _PARSE_CACHE.get(line)
    if cached is None:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        cached = [_parse_simple(part) for part in _split_top_level(line)]
        _PARSE_CACHE[line] = cached
    return [
        SimpleCommand(
            text=c.text,
            argv=list(c.argv),
            redirect_path=c.redirect_path,
            redirect_append=c.redirect_append,
        )
        for c in cached
    ]
