"""Execute interaction scripts once against a real honeypot.

The trace generator stamps millions of sessions, but the *content* of every
distinct interaction — recorded command strings, URIs, file hashes, and
execution timing — comes from actually running the script through the
honeypot's emulated shell exactly once.  The resulting
:class:`ScriptProfile` is then reused for every session of that campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.agents.scripts import ScriptKind, ScriptTemplate
from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.resolver import StaticPayloadResolver
from repro.honeypot.shell.shell import EmulatedShell
from repro.obs.trace import use_tracer

#: Seconds of "typing time" charged per input line when profiling.
THINK_TIME_PER_LINE = 2.5


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

    @property
    def creates_files(self) -> bool:
        return bool(self.hashes)


class ScriptRunner:
    """Profiles scripts through the emulated shell, one run per script.

    Only the profiles are cached: a template's payload lives in a resolver
    built for its one run, so the runner holds no payload bytes between
    runs and a profile depends on its own template alone.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple, ScriptProfile] = {}

    def profile(self, template: ScriptTemplate) -> ScriptProfile:
        """Run ``template`` once (cached) and return its profile.

        Profiling runs with the flight recorder silenced: the profiling run
        is a per-process measurement detail (cached, so a second worker
        legitimately re-profiles), and its events would make the workload
        trace worker-count-variant.
        """
        key = (template.kind, template.token, tuple(template.lines))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with use_tracer(None):
            profile = self._run(template)
        self._cache[key] = profile
        return profile

    def _run(self, template: ScriptTemplate) -> ScriptProfile:
        """Drive the emulated shell through ``template``.

        The script runs as a logged-in session would type it: one input
        line every ``THINK_TIME_PER_LINE`` seconds starting at t=2, stopping
        when a line requests exit.  The shell alone produces the command
        records, URI and hash ordering and download durations, so the
        session state machine and event engine are not needed here;
        ``PROFILE_GOLDEN`` in ``tests/test_golden_digests.py`` pins the
        profile of every script kind.
        """
        context = ShellContext(fs=FakeFilesystem(),
                               resolver=_payload_resolver(template))
        shell = EmulatedShell(context)
        commands: List[str] = []
        uris: List[str] = []
        unique_hashes: List[str] = []
        when = 2.0
        for line in template.lines:
            context.now = when
            result = shell.execute(line)
            for record in result.commands:
                commands.append(record.text)
                for uri in record.uris:
                    if uri not in uris:
                        uris.append(uri)
            for change in result.file_changes:
                if change.sha256 not in unique_hashes:
                    unique_hashes.append(change.sha256)
            when += THINK_TIME_PER_LINE
            if result.exit_requested:
                # The session closed on the client's `exit`: the rest of
                # the typed input never arrives.
                break
        download_seconds = sum(
            d.duration for d in context.downloads if d.success
        )
        return ScriptProfile(
            kind=template.kind,
            token=template.token,
            commands=tuple(commands),
            uris=tuple(uris),
            hashes=tuple(unique_hashes),
            exec_seconds=len(template.lines) * THINK_TIME_PER_LINE + download_seconds,
            download_seconds=download_seconds,
        )


def _payload_resolver(template: ScriptTemplate) -> StaticPayloadResolver:
    """A resolver serving the template's payload under every URI it uses.

    Dropper scripts name fallback transports (``wget X || tftp ...``)
    that resolve to different URIs for the same payload; registering the
    payload under each keeps the recorded hash identical across
    transports — the property the farm relies on to correlate a
    campaign.  Any other URI gets the deterministic default payload.
    """
    resolver = StaticPayloadResolver()
    payload = template.payload
    uri = template.dropper_uri
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
