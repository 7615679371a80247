"""The emulated shell: executes client input lines and records everything.

Each input line is split into simple commands (pipeline stages).  Known
commands run through their emulation; unknown ones are recorded verbatim —
they produce the busybox "applet not found" error text, but from the
honeypot's perspective what matters is the record.  Output redirection turns
a command's output into a file write (with hash recording).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List

from repro.honeypot.shell.base import CommandRegistry, default_registry
from repro.honeypot.shell.context import DownloadRecord, FileChange, ShellContext
from repro.honeypot.shell.parser import SimpleCommand, split_command_line
from repro.honeypot.uri import extract_uris


@dataclass
class CommandRecord:
    """What the honeypot logs for a single executed command."""

    text: str
    name: str
    known: bool
    output: str
    uris: List[str] = field(default_factory=list)


@dataclass
class ExecutionResult:
    """Everything produced by one input line."""

    line: str
    commands: List[CommandRecord] = field(default_factory=list)
    file_changes: List[FileChange] = field(default_factory=list)
    downloads: List[DownloadRecord] = field(default_factory=list)
    exit_requested: bool = False

    @property
    def uris(self) -> List[str]:
        seen = []
        for record in self.commands:
            for uri in record.uris:
                if uri not in seen:
                    seen.append(uri)
        return seen


class EmulatedShell:
    """Executes input lines against a :class:`ShellContext`."""

    def __init__(self, context: ShellContext, registry: CommandRegistry = None):
        self.context = context
        self.registry = registry or default_registry()

    def execute(self, line: str) -> ExecutionResult:
        """Execute one client input line; returns all recorded artefacts."""
        result = ExecutionResult(line=line)
        changes_before = len(self.context.file_changes)
        downloads_before = len(self.context.downloads)

        for simple in split_command_line(line):
            record = self._run_simple(simple)
            result.commands.append(record)
            if self.context.exit_requested:
                result.exit_requested = True
                break

        result.file_changes = self.context.file_changes[changes_before:]
        result.downloads = self.context.downloads[downloads_before:]
        return result

    #: Innermost $(...) substitution, one nesting level per pass.
    _SUBSTITUTION_RE = re.compile(r"\$\(([^()]*)\)")

    def _substitute(self, simple: SimpleCommand) -> SimpleCommand:
        """Expand ``$(command)`` substitutions (e.g. ``ls -lh $(which ls)``).

        Substitution output is captured from the emulated command; the
        *recorded* command text keeps the original form, exactly as the
        honeypot logs what the client typed.
        """
        if "$(" not in simple.text:
            return simple

        def replace(match: re.Match) -> str:
            inner = split_command_line(match.group(1))
            outputs = []
            for sub in inner:
                record = self._run_simple(sub)
                outputs.append(record.output)
            return " ".join(o.strip() for o in outputs if o)

        expanded_text = simple.text
        for _ in range(3):  # bounded nesting
            new_text = self._SUBSTITUTION_RE.sub(replace, expanded_text)
            if new_text == expanded_text:
                break
            expanded_text = new_text
        if expanded_text == simple.text:
            return simple
        reparsed = split_command_line(expanded_text)
        if not reparsed:
            return simple
        expanded = reparsed[0]
        return SimpleCommand(
            text=simple.text,  # keep the original for the record
            argv=expanded.argv,
            redirect_path=expanded.redirect_path or simple.redirect_path,
            redirect_append=expanded.redirect_append or simple.redirect_append,
        )

    def _run_simple(self, simple: SimpleCommand) -> CommandRecord:
        simple = self._substitute(simple)
        uris = extract_uris(simple.text)
        if not simple.argv:
            return CommandRecord(text=simple.text, name="", known=True, output="", uris=uris)

        name = simple.name
        func = self.registry.lookup(name)

        if func is None and (name.startswith("./") or name.startswith("/")):
            # Executing a (downloaded) local binary: unknown command, but it
            # must exist to "run"; either way Cowrie records the input.
            known = False
            if self.context.fs.exists(name):
                output = ""
            else:
                output = f"-sh: {name}: not found"
            record = CommandRecord(
                text=simple.text, name=name, known=known, output=output, uris=uris
            )
            return record

        if func is None:
            output = f"-sh: {name}: not found"
            return CommandRecord(
                text=simple.text, name=name, known=False, output=output, uris=uris
            )

        try:
            output = func(self.context, simple)
            if simple.redirect_path:
                content = (output + "\n").encode("utf-8") if output else b""
                if name == "echo" and not output:
                    content = b"\n"
                self.context.record_write(
                    simple.redirect_path, content, append=simple.redirect_append
                )
                output = ""
        except IsADirectoryError as exc:
            # A write onto a directory fails this command, not the shell.
            output = f"-sh: {exc}: Is a directory"

        return CommandRecord(
            text=simple.text, name=name, known=True, output=output, uris=uris
        )
