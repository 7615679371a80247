"""Execute interaction scripts once against a real honeypot.

The trace generator stamps millions of sessions, but the *content* of every
distinct interaction — recorded command strings, URIs, file hashes, and
execution timing — comes from actually running the script through the
honeypot's emulated shell.  The shell runs once per script *shape*
(:attr:`ScriptTemplate.shape`): the run records a recipe with the shape's
placeholders still in it, and every script of that shape is profiled by
filling in its own strings.  The resulting :class:`ScriptProfile` is then
reused for every session of that campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.agents.scripts import (
    FULL_RUN_KINDS,
    ScriptKind,
    ScriptTemplate,
    fill,
)
from repro.honeypot.filesystem import FakeFilesystem, hash_content
from repro.honeypot.shell.context import FileChange, ShellContext
from repro.honeypot.shell.resolver import StaticPayloadResolver
from repro.honeypot.shell.shell import EmulatedShell
from repro.obs import inc as _metric_inc
from repro.obs.trace import use_tracer

#: Seconds of "typing time" charged per input line when profiling.
THINK_TIME_PER_LINE = 2.5

#: The punctuation an inert fill may hold between its first and last char.
_WORD_PUNCTUATION = str.maketrans("", "", "._-")


def _inert(value: str) -> bool:
    """Whether the shell treats ``value`` exactly like a placeholder: an
    ASCII word of letters, digits and ``._-`` that starts and ends with a
    letter or digit, so no quoting, option parsing, URI punctuation
    stripping or path step can tell the two apart.  A template with any
    other fill (the empty token, say) runs in full."""
    return (value.isascii() and value[:1].isalnum() and value[-1:].isalnum()
            and value.translate(_WORD_PUNCTUATION).isalnum())


@dataclass(frozen=True)
class ScriptProfile:
    """What one execution of a script produces, ready for bulk stamping."""

    kind: ScriptKind
    token: str
    commands: Tuple[str, ...]
    uris: Tuple[str, ...]
    hashes: Tuple[str, ...]  # unique, in first-seen order
    exec_seconds: float  # think time + download transfer time
    download_seconds: float

    @property
    def primary_hash(self) -> Optional[str]:
        return self.hashes[0] if self.hashes else None


class _Recipe(NamedTuple):
    """One shape's transcript with its placeholders unfilled.

    ``contents`` has one entry per file change: the written file's content
    as a ``str`` template, or None where the file is the template's own
    payload.  No payload bytes are kept.
    """

    commands: Tuple[str, ...]
    uris: Tuple[str, ...]
    contents: Tuple[Optional[str], ...]
    exec_seconds: float
    download_seconds: float


class _RecordingContext(ShellContext):
    """A shell context that also keeps each written file's content."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.contents: List[bytes] = []

    def record_write(self, path: str, content: bytes,
                     append: bool = False) -> FileChange:
        change = super().record_write(path, content, append=append)
        self.contents.append(self.fs.read(change.path))
        return change


class ScriptRunner:
    """Profiles scripts through the emulated shell, one run per shape.

    The cached recipes hold ``str`` templates and no payload bytes: a
    payload lives in a resolver built for its one run, and a recipe names
    it only as "the sha256 of this template's payload".  Scripts whose
    transcript is not a substitution of their fills (``FULL_RUN_KINDS``,
    fetches the resolver answers from its URI-derived default, a fill the
    shell could tell from its placeholder) run in full, one run per script.
    """

    def __init__(self) -> None:
        #: shape -> recipe, or None where the shape runs in full.
        self._recipes: Dict[Tuple, Optional[_Recipe]] = {}

    def profile(self, template: ScriptTemplate) -> ScriptProfile:
        """Profile ``template`` and return its profile."""
        return self.profile_many((template,))[0]

    def profile_many(self, templates: Iterable[ScriptTemplate]) -> List[ScriptProfile]:
        """Profile each of ``templates``, in order, in one pass.

        Profiles are not kept: nearly every script is profiled once, and a
        repeat of a substitutable one costs a fill, not a shell run.
        Profiling runs with the flight recorder silenced: the profiling run
        is a per-process measurement detail (each worker keeps its own
        recipes, so a second worker legitimately re-runs a shape), and its
        events would make the workload trace worker-count-variant.
        """
        with use_tracer(None):
            return [self._profile(template) for template in templates]

    def _profile(self, template: ScriptTemplate) -> ScriptProfile:
        values = dict(template.fills)
        if template.kind in FULL_RUN_KINDS or not all(
                map(_inert, values.values())):
            return self._run(template)
        shape = template.shape
        if shape in self._recipes:
            recipe = self._recipes[shape]
            if recipe is not None:
                _metric_inc("script.shape_hits")
        else:
            # The placeholders are plain words, so the shape itself runs.
            _, lines, uri, _ = shape
            recipe, defaulted = _record(lines, uri, template.payload)
            self._recipes[shape] = recipe = None if defaulted else recipe
        if recipe is None:
            return self._run(template)
        return _apply(recipe, template, values)

    def _run(self, template: ScriptTemplate) -> ScriptProfile:
        """Profile ``template`` by a full shell run of its own lines."""
        recipe, _ = _record(template.lines, template.dropper_uri,
                            template.payload)
        return _apply(recipe, template, {})


def _apply(recipe: _Recipe, template: ScriptTemplate,
           values: Dict[str, str]) -> ScriptProfile:
    """``template``'s profile: ``recipe`` with ``values`` filled in.

    URIs and hashes are deduplicated after filling: two templates of one
    shape can coincide under one fill and not another.
    """
    payload_hash = None
    hashes = []
    for content in recipe.contents:
        if content is None:
            if payload_hash is None:
                payload_hash = hash_content(template.payload)
            hashes.append(payload_hash)
        else:
            hashes.append(hash_content(fill(content, values).encode("latin-1")))
    return ScriptProfile(
        kind=template.kind,
        token=template.token,
        commands=tuple(fill(c, values) for c in recipe.commands),
        uris=tuple(dict.fromkeys(fill(u, values) for u in recipe.uris)),
        hashes=tuple(dict.fromkeys(hashes)),
        exec_seconds=recipe.exec_seconds,
        download_seconds=recipe.download_seconds,
    )


def _record(lines: Sequence[str], dropper_uri: Optional[str],
            payload: Optional[bytes]) -> Tuple[_Recipe, bool]:
    """Drive the emulated shell through ``lines``.

    The script runs as a logged-in session would type it: one input line
    every ``THINK_TIME_PER_LINE`` seconds starting at t=2, stopping when a
    line requests exit.  The shell alone produces the command records, URI
    and hash ordering and download durations, so the session state machine
    and event engine are not needed here; ``PROFILE_GOLDEN`` in
    ``tests/test_golden_digests.py`` pins the profile of every script kind.

    Returns the transcript as a recipe, and whether the resolver answered
    any fetch from its URI-derived default.
    """
    _metric_inc("script.shell_runs")
    resolver = _payload_resolver(dropper_uri, payload)
    context = _RecordingContext(fs=FakeFilesystem(), resolver=resolver)
    shell = EmulatedShell(context)
    commands: List[str] = []
    uris: List[str] = []
    when = 2.0
    for line in lines:
        context.now = when
        result = shell.execute(line)
        for record in result.commands:
            commands.append(record.text)
            uris.extend(record.uris)
        when += THINK_TIME_PER_LINE
        if result.exit_requested:
            # The session closed on the client's `exit`: the rest of
            # the typed input never arrives.
            break
    payload_hash = None if payload is None else hash_content(payload)
    download_seconds = sum(d.duration for d in context.downloads if d.success)
    recipe = _Recipe(
        commands=tuple(commands),
        uris=tuple(uris),
        # latin-1 maps each byte to one char and back, and fills are
        # ASCII, so filling the str fills the bytes.
        contents=tuple(
            None if change.sha256 == payload_hash else content.decode("latin-1")
            for change, content in zip(context.file_changes, context.contents)),
        exec_seconds=len(lines) * THINK_TIME_PER_LINE + download_seconds,
        download_seconds=download_seconds,
    )
    defaulted = any(d.uri not in resolver.payloads for d in context.downloads)
    return recipe, defaulted


def _payload_resolver(uri: Optional[str],
                      payload: Optional[bytes]) -> StaticPayloadResolver:
    """A resolver serving ``payload`` under every URI the script uses.

    Dropper scripts name fallback transports (``wget X || tftp ...``)
    that resolve to different URIs for the same payload; registering the
    payload under each keeps the recorded hash identical across
    transports — the property the farm relies on to correlate a
    campaign.  Any other URI gets the deterministic default payload.
    """
    resolver = StaticPayloadResolver()
    if not uri or payload is None:
        return resolver
    resolver.register(uri, payload)
    # Derive the busybox-tftp form of the same fetch.
    if uri.startswith("http://"):
        rest = uri[len("http://"):]
        host, _, path = rest.partition("/")
        filename = path.rsplit("/", 1)[-1]
        if filename:
            resolver.register(f"tftp://{host}/{filename}", payload)
            resolver.register(f"ftp://{host}/{filename}", payload)
    return resolver
